#pragma once
// The protocol-independent half of a diagnostic tester, shared by
// uds::Client and kwp::Client: one request at a time over a MessageLink,
// with the bounded retry loop of util::TransactPolicy.
//
// The simulated medium is drained explicitly by the caller, so the client
// takes a pump callback that pushes the bus until the response arrives.
// With a resilient policy the loop rides out faults: it absorbs NRC 0x78
// responsePending, backs off and resends after NRC 0x21
// busyRepeatRequest, and retries a bounded number of times when a request
// or response was lost on the wire. The default policy performs exactly
// one send-and-pump, keeping fault-free runs bit-identical.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>

#include "util/clock.hpp"
#include "util/hex.hpp"
#include "util/link.hpp"
#include "util/transact.hpp"

namespace dpr::diag {

class ClientCore {
 public:
  /// `pump` must advance the underlying medium until pending traffic has
  /// been delivered (e.g. [&]{ bus.deliver_pending(); }). `clock`, when
  /// given, lets retry backoffs advance simulated time; without it the
  /// retry loop still works but backs off zero time.
  ClientCore(util::MessageLink& link, std::function<void()> pump,
             util::TransactPolicy policy = {},
             util::SimClock* clock = nullptr);

  /// Send a raw request and wait for the response (pumping the medium and
  /// retrying per the policy). Returns nullopt if every attempt timed out;
  /// a 0x21 refusal that outlasted every retry is returned as is.
  std::optional<util::Bytes> transact(std::span<const std::uint8_t> request);

  const util::TransactStats& stats() const { return stats_; }

 protected:
  /// Send without waiting for an answer (suppressed TesterPresent: no
  /// response is coming, so the retry loop would only burn its budget).
  void send_only(std::span<const std::uint8_t> request);

  /// {requested sid, code} of the last transact()'s answer when that
  /// answer was a negative response.
  struct Negative {
    std::uint8_t sid = 0;
    std::uint8_t code = 0;
  };
  const std::optional<Negative>& last_nrc() const { return last_nrc_; }

 private:
  void claim_link();
  void backoff(util::SimTime delay);

  util::MessageLink& link_;
  std::function<void()> pump_;
  util::TransactPolicy policy_;
  util::SimClock* clock_ = nullptr;
  std::deque<util::Bytes> inbox_;
  std::optional<Negative> last_nrc_;
  util::TransactStats stats_;
};

}  // namespace dpr::diag
