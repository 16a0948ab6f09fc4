#include "diag/client_core.hpp"

#include "diag/server_core.hpp"

namespace dpr::diag {

namespace {

std::optional<std::uint8_t> nrc_of(const util::Bytes& message) {
  if (message.size() < 3 || message[0] != kNegativeResponseSid) {
    return std::nullopt;
  }
  return message[2];
}

}  // namespace

ClientCore::ClientCore(util::MessageLink& link, std::function<void()> pump,
                       util::TransactPolicy policy, util::SimClock* clock)
    : link_(link), pump_(std::move(pump)), policy_(policy), clock_(clock) {}

void ClientCore::claim_link() {
  // (Re-)claim the link for this transaction: several protocol clients
  // (UDS + KWP on vehicles that mix 0x22 reads with 0x30 IO control) may
  // share one transport.
  link_.set_message_handler(
      [this](const util::Bytes& message) { inbox_.push_back(message); });
}

void ClientCore::backoff(util::SimTime delay) {
  if (clock_ != nullptr && delay > 0) clock_->advance(delay);
}

void ClientCore::send_only(std::span<const std::uint8_t> request) {
  claim_link();
  link_.send(request);
  pump_();
  inbox_.clear();
}

std::optional<util::Bytes> ClientCore::transact(
    std::span<const std::uint8_t> request) {
  claim_link();
  last_nrc_.reset();
  ++stats_.transactions;

  for (int attempt = 0;; ++attempt) {
    inbox_.clear();  // stale answers from a previous attempt are void
    link_.send(request);
    pump_();

    // Scan everything the pump delivered: absorb 0x78 responsePending
    // markers (the real answer follows in the same drained queue, or was
    // lost), keep the last substantive message — last-write-wins.
    bool busy = false;
    int pending = 0;
    std::optional<util::Bytes> final;
    for (auto& message : inbox_) {
      const auto nrc = nrc_of(message);
      if (nrc == kNrcResponsePending) {
        ++stats_.pending_waits;
        if (++pending <= policy_.max_pending_waits) continue;
      }
      busy = nrc == kNrcBusyRepeatRequest;
      final = std::move(message);
    }
    inbox_.clear();

    const bool answered = final && !busy;
    if (!answered && attempt < policy_.max_retries) {
      if (busy) {
        ++stats_.busy_retries;
        backoff(policy_.p2_star);
      } else {
        ++stats_.retries;
        backoff(policy_.p2);
      }
      continue;
    }
    if (!answered) {
      ++stats_.failures;
      // Total silence across every retry can mean the peer lost its link
      // state (a K-Line ECU rebooted and is deaf until the next wakeup).
      // Drop our side of the handshake so the next send re-establishes
      // it; links without a handshake ignore this.
      if (!final) link_.reconnect();
    }
    // An exhausted busy refusal still comes back, so the caller sees why.
    if (final) {
      if (const auto nrc = nrc_of(*final)) {
        last_nrc_ = Negative{(*final)[1], *nrc};
      }
    }
    return final;
  }
}

}  // namespace dpr::diag
