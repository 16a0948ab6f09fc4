#pragma once
// The protocol-independent half of a simulated diagnostic ECU, shared by
// uds::Server (ISO 14229) and kwp::Server (ISO 14230-3). KWP 2000 reuses
// the ISO 14229 negative-response layout and codes and the same session,
// security and busy/pending conventions, so everything except the service
// tables lives here once:
//
//   * the respond() envelope: reboot draw, then busy (0x21) / pending
//     (0x78) draws, then the protocol's own answer;
//   * lazy S3 session expiry;
//   * the 0x27 seed/key exchange with its attempt lockout;
//   * spontaneous reboots and their counters;
//   * binding a server to a transport.
//
// A Dialect carries the few places where the two standards differ.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/clock.hpp"
#include "util/counter_rng.hpp"
#include "util/hex.hpp"
#include "util/link.hpp"
#include "util/rng.hpp"

namespace dpr::diag {

/// Byte values both standards share.
inline constexpr std::uint8_t kNegativeResponseSid = 0x7F;
inline constexpr std::uint8_t kPositiveOffset = 0x40;
inline constexpr std::uint8_t kSecurityAccess = 0x27;
inline constexpr std::uint8_t kNrcServiceNotSupported = 0x11;
inline constexpr std::uint8_t kNrcBusyRepeatRequest = 0x21;
inline constexpr std::uint8_t kNrcRequestSequenceError = 0x24;
inline constexpr std::uint8_t kNrcInvalidKey = 0x35;
inline constexpr std::uint8_t kNrcExceedNumberOfAttempts = 0x36;
inline constexpr std::uint8_t kNrcRequiredTimeDelayNotExpired = 0x37;
inline constexpr std::uint8_t kNrcResponsePending = 0x78;

/// {0x7F, requested sid, code}.
inline util::Bytes negative_response(std::uint8_t sid, std::uint8_t code) {
  return {kNegativeResponseSid, sid, code};
}

/// Where the two protocols' servers behave differently.
struct Dialect {
  /// Session a reboot or an S3 expiry falls back to (UDS defaultSession
  /// 0x01; KWP "no session started").
  std::uint8_t default_session = 0x01;
  /// Whether S3 expiry also re-locks security access (UDS yes, KWP no).
  bool s3_relocks_security = true;
  /// NRC for a 0x27 request shorter than two bytes (UDS 0x13
  /// incorrectMessageLength, KWP 0x12 subFunctionNotSupported).
  std::uint8_t short_security_request_nrc = 0x13;
};

class ServerCore {
 public:
  /// Server-side fault behaviour: with probability `busy_rate` the ECU
  /// refuses with NRC 0x21 busyRepeatRequest (the request is NOT
  /// processed); otherwise, with probability `pending_rate`, it stalls
  /// with 1..max_pending NRC 0x78 responsePending messages before the
  /// real answer. Draw order is fixed (busy, then pending count) and
  /// per-request.
  struct FaultProfile {
    double pending_rate = 0.0;
    int max_pending = 2;
    double busy_rate = 0.0;

    bool enabled() const { return pending_rate > 0.0 || busy_rate > 0.0; }
  };
  void enable_faults(const FaultProfile& profile, util::Rng rng);

  /// Session-state timers, armed only when a sim clock is provided (a bare
  /// server keeps always-on session semantics): a non-default session
  /// falls back to the default after `s3_timeout` of inactivity (any
  /// handled request refreshes the timer, which is what TesterPresent
  /// keepalives are for), and `max_key_attempts` wrong security keys lock
  /// security access out for `lockout_delay` (NRC 0x36 on the attempt
  /// that trips the limit, NRC 0x37 until the delay expires).
  struct SessionProfile {
    util::SimTime s3_timeout = 5 * util::kSecond;
    int max_key_attempts = 3;
    util::SimTime lockout_delay = 10 * util::kSecond;
  };
  void enable_sessions(const SessionProfile& profile,
                       const util::SimClock& clock);

  /// Deterministic ECU reboots: with probability `reset_rate` per incoming
  /// request the ECU wipes its session/security state and goes bus-silent
  /// (no response at all) until `boot_time` has elapsed. The n-th
  /// *non-silent* request draws event n of the provided counter stream, so
  /// any request's reboot fate can be re-derived in O(1); requests
  /// swallowed by the boot window consume no event. A zero rate is never
  /// armed, so clean runs perform zero draws.
  struct ResetProfile {
    double reset_rate = 0.0;
    util::SimTime boot_time = 300 * util::kMillisecond;

    bool enabled() const { return reset_rate > 0.0; }
  };
  void enable_resets(const ResetProfile& profile, const util::SimClock& clock,
                     util::CounterRng stream);

  /// Security-access seed/key: the key function maps seed -> expected key.
  /// Once set, the protocols' IO-control services demand an unlocked
  /// state (UDS) and 0x27 answers instead of 0x11.
  void enable_security(std::function<util::Bytes(const util::Bytes&)> key_fn);

  /// Spontaneous reboots performed / S3 timeouts that dropped a session.
  std::uint64_t resets() const { return resets_; }
  std::uint64_t s3_expiries() const { return s3_expiries_; }
  /// Security lockout currently in force (for tests).
  bool locked_out() const;
  /// Exclusive end of the current reboot silence window, or -1 when the
  /// ECU is up. NM nodes use this to model a rebooting ECU vanishing from
  /// the ring (deaf and mute until the boot completes).
  util::SimTime silent_until() const { return silent_until_; }
  bool unlocked() const { return unlocked_; }

 protected:
  explicit ServerCore(const Dialect& dialect) : dialect_(dialect) {
    session_ = dialect.default_session;
  }

  /// The full response sequence for one request: the protocol's answer
  /// from `handle`, possibly preceded by fault-injected 0x78 markers or
  /// replaced by a 0x21 refusal, or nothing at all while rebooting.
  /// Without faults this is exactly {handle(request)} (minus an empty
  /// answer, e.g. a suppressed positive response).
  template <class Handle>
  std::vector<util::Bytes> respond_with(std::span<const std::uint8_t> request,
                                        Handle&& handle) {
    std::vector<util::Bytes> responses;
    if (!admit(request, responses)) return responses;
    util::Bytes answer = handle(request);
    if (!answer.empty()) responses.push_back(std::move(answer));
    return responses;
  }

  /// Lazy S3 expiry and activity refresh; the protocols call it first
  /// thing in handle(). The session fell back to default the moment the
  /// timer ran out; it is only observed on the next request.
  void touch_session();

  /// The 0x27 service: odd level requests a seed, even level sends the
  /// key; with sessions armed, wrong keys count toward the lockout.
  util::Bytes handle_security_access(std::span<const std::uint8_t> req);

  bool sessions_armed() const { return sessions_armed_; }
  bool security_enabled() const { return static_cast<bool>(key_fn_); }

  std::uint8_t session_ = 0x01;
  bool unlocked_ = false;
  /// Invoked at the moment a spontaneous reboot starts (KWP's K-Line
  /// endpoints drop their wakeup state here).
  std::function<void()> reset_hook_;

 private:
  /// Reboot and busy/pending draws. False when the request must not reach
  /// the service table (empty, swallowed by a reboot, refused as busy);
  /// `responses` then holds whatever goes on the wire instead.
  bool admit(std::span<const std::uint8_t> request,
             std::vector<util::Bytes>& responses);

  Dialect dialect_;
  std::function<util::Bytes(const util::Bytes&)> key_fn_;
  util::Bytes pending_seed_;
  FaultProfile faults_;
  util::Rng fault_rng_;

  // Stateful-failure machinery; inert until enable_sessions/enable_resets.
  const util::SimClock* clock_ = nullptr;
  SessionProfile session_profile_;
  bool sessions_armed_ = false;
  ResetProfile reset_profile_;
  util::CounterRng reset_stream_;
  std::uint64_t reset_events_ = 0;  ///< non-silent requests seen so far
  bool resets_armed_ = false;
  util::SimTime last_activity_ = 0;
  util::SimTime silent_until_ = -1;   ///< rebooting: exclusive end of silence
  util::SimTime lockout_until_ = -1;  ///< security lockout delay timer
  int key_attempts_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t s3_expiries_ = 0;
};

/// Bind a server to a transport: incoming messages are answered with the
/// server's response sequence on the same link.
template <class Server>
void bind(Server& server, util::MessageLink& link) {
  link.set_message_handler([&server, &link](const util::Bytes& request) {
    for (const util::Bytes& response : server.respond(request)) {
      link.send(response);
    }
  });
}

}  // namespace dpr::diag
