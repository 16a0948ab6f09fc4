#pragma once
// UDS client: the tester side (professional diagnostic tool). The
// transaction loop (send, pump, absorb 0x78, retry 0x21 and timeouts per
// util::TransactPolicy) is diag::ClientCore; this class adds the ISO 14229
// service wrappers.

#include <functional>
#include <optional>

#include "diag/client_core.hpp"
#include "uds/message.hpp"

namespace dpr::uds {

class Client : public diag::ClientCore {
 public:
  using diag::ClientCore::ClientCore;

  /// --- Convenience wrappers over the §2.3.2 services --------------------

  bool start_session(std::uint8_t session_type);

  /// 0x3E keepalive. The suppressed form (the supervisor's steady-state
  /// keepalive) sends and pumps without expecting any response; the
  /// non-suppressed form doubles as an is-the-ECU-back liveness probe and
  /// reports whether a positive response arrived.
  bool tester_present(bool suppress = false);

  /// 0x27 seed/key handshake with the given key derivation.
  bool security_unlock(
      std::uint8_t level,
      const std::function<util::Bytes(const util::Bytes&)>& key_fn);

  /// 0x22 for several DIDs; parses the response with the tool's knowledge
  /// of each DID's data length.
  std::optional<std::vector<DataRecord>> read_data(
      std::span<const Did> dids,
      const std::function<std::optional<std::size_t>(Did)>& length_of);

  /// 0x2F: returns the control-status bytes of a positive response.
  std::optional<util::Bytes> io_control(
      Did did, IoControlParameter param,
      std::span<const std::uint8_t> control_state = {});

  /// Last negative response seen (if the latest transact got a 0x7F).
  std::optional<NegativeResponse> last_negative() const {
    if (!last_nrc()) return std::nullopt;
    return NegativeResponse{last_nrc()->sid,
                            static_cast<Nrc>(last_nrc()->code)};
  }
};

}  // namespace dpr::uds
