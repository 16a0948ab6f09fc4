#include "diag/server_core.hpp"

#include <algorithm>

namespace dpr::diag {

void ServerCore::enable_faults(const FaultProfile& profile, util::Rng rng) {
  faults_ = profile;
  fault_rng_ = rng;
}

void ServerCore::enable_sessions(const SessionProfile& profile,
                                 const util::SimClock& clock) {
  session_profile_ = profile;
  clock_ = &clock;
  sessions_armed_ = true;
  last_activity_ = clock.now();
}

void ServerCore::enable_resets(const ResetProfile& profile,
                               const util::SimClock& clock,
                               util::CounterRng stream) {
  if (!profile.enabled()) return;  // zero rate: stay draw-free
  reset_profile_ = profile;
  clock_ = &clock;
  reset_stream_ = stream;
  resets_armed_ = true;
}

void ServerCore::enable_security(
    std::function<util::Bytes(const util::Bytes&)> key_fn) {
  key_fn_ = std::move(key_fn);
  unlocked_ = false;
}

bool ServerCore::locked_out() const {
  return sessions_armed_ && clock_->now() < lockout_until_;
}

bool ServerCore::admit(std::span<const std::uint8_t> request,
                       std::vector<util::Bytes>& responses) {
  if (request.empty()) return false;
  if (resets_armed_) {
    // Fixed draw order per request: the reboot draw comes before the
    // busy/pending envelope draws. A rebooting ECU is bus-silent — the
    // request is swallowed without a draw while the boot window runs.
    const util::SimTime now = clock_->now();
    if (now < silent_until_) return false;
    if (reset_stream_.at(reset_events_++).chance(reset_profile_.reset_rate)) {
      session_ = dialect_.default_session;
      unlocked_ = false;
      pending_seed_.clear();
      key_attempts_ = 0;
      lockout_until_ = -1;
      silent_until_ = now + reset_profile_.boot_time;
      ++resets_;
      if (reset_hook_) reset_hook_();
      return false;
    }
  }
  if (faults_.enabled()) {
    const std::uint8_t sid = request[0];
    if (faults_.busy_rate > 0.0 && fault_rng_.chance(faults_.busy_rate)) {
      // Busy ECUs refuse without processing; the tester must resend.
      responses.push_back(negative_response(sid, kNrcBusyRepeatRequest));
      return false;
    }
    if (faults_.pending_rate > 0.0 &&
        fault_rng_.chance(faults_.pending_rate)) {
      const auto n = fault_rng_.uniform_int(
          1, std::max(1, faults_.max_pending));
      for (std::int64_t i = 0; i < n; ++i) {
        responses.push_back(negative_response(sid, kNrcResponsePending));
      }
    }
  }
  return true;
}

void ServerCore::touch_session() {
  if (!sessions_armed_) return;
  const util::SimTime now = clock_->now();
  if (session_ != dialect_.default_session &&
      now - last_activity_ > session_profile_.s3_timeout) {
    session_ = dialect_.default_session;
    if (dialect_.s3_relocks_security) unlocked_ = false;
    ++s3_expiries_;
  }
  last_activity_ = now;
}

util::Bytes ServerCore::handle_security_access(
    std::span<const std::uint8_t> req) {
  if (!key_fn_) {
    return negative_response(kSecurityAccess, kNrcServiceNotSupported);
  }
  if (req.size() < 2) {
    return negative_response(kSecurityAccess,
                             dialect_.short_security_request_nrc);
  }
  if (locked_out()) {
    // Both seed requests and key sends are refused until the delay timer
    // set by the exceeded-attempts lockout expires.
    return negative_response(kSecurityAccess,
                             kNrcRequiredTimeDelayNotExpired);
  }
  const std::uint8_t level = req[1];
  constexpr std::uint8_t kPositive = kSecurityAccess + kPositiveOffset;
  if (level % 2 == 1) {  // requestSeed
    pending_seed_ = {0x12, 0x34, 0x56, 0x78};
    util::Bytes out{kPositive, level};
    out.insert(out.end(), pending_seed_.begin(), pending_seed_.end());
    return out;
  }
  // sendKey
  if (pending_seed_.empty()) {
    return negative_response(kSecurityAccess, kNrcRequestSequenceError);
  }
  const util::Bytes expected = key_fn_(pending_seed_);
  const util::Bytes provided(req.begin() + 2, req.end());
  pending_seed_.clear();
  if (provided != expected) {
    if (sessions_armed_ &&
        ++key_attempts_ >= session_profile_.max_key_attempts) {
      key_attempts_ = 0;
      lockout_until_ = clock_->now() + session_profile_.lockout_delay;
      return negative_response(kSecurityAccess, kNrcExceedNumberOfAttempts);
    }
    return negative_response(kSecurityAccess, kNrcInvalidKey);
  }
  key_attempts_ = 0;
  unlocked_ = true;
  return {kPositive, level};
}

}  // namespace dpr::diag
