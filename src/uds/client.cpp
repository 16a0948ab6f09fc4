#include "uds/client.hpp"

namespace dpr::uds {

bool Client::start_session(std::uint8_t session_type) {
  const auto resp = transact(encode_session_control(session_type));
  return resp &&
         is_positive_response(*resp, Service::kDiagnosticSessionControl);
}

bool Client::tester_present(bool suppress) {
  if (suppress) {
    send_only(encode_tester_present(true));
    return true;
  }
  const auto resp = transact(encode_tester_present(false));
  return resp && is_positive_response(*resp, Service::kTesterPresent);
}

bool Client::security_unlock(
    std::uint8_t level,
    const std::function<util::Bytes(const util::Bytes&)>& key_fn) {
  const auto seed_resp =
      transact(encode_security_access_seed_request(level));
  if (!seed_resp || !is_positive_response(*seed_resp,
                                          Service::kSecurityAccess)) {
    return false;
  }
  // Positive format is [0x67, level, seed...]; a truncated (corrupted)
  // response must not be sliced past its end.
  if (seed_resp->size() < 3) return false;
  const util::Bytes seed(seed_resp->begin() + 2, seed_resp->end());
  const auto key_resp =
      transact(encode_security_access_send_key(level, key_fn(seed)));
  return key_resp &&
         is_positive_response(*key_resp, Service::kSecurityAccess);
}

std::optional<std::vector<DataRecord>> Client::read_data(
    std::span<const Did> dids,
    const std::function<std::optional<std::size_t>(Did)>& length_of) {
  const auto resp = transact(encode_read_data_by_identifier(dids));
  if (!resp) return std::nullopt;
  return decode_read_data_response(*resp, dids, length_of);
}

std::optional<util::Bytes> Client::io_control(
    Did did, IoControlParameter param,
    std::span<const std::uint8_t> control_state) {
  const auto resp = transact(encode_io_control(did, param, control_state));
  // Positive format is [0x6F, did hi, did lo, param, state...].
  if (!resp || !is_positive_response(*resp, Service::kIoControlByIdentifier) ||
      resp->size() < 4) {
    return std::nullopt;
  }
  return util::Bytes(resp->begin() + 4, resp->end());
}

}  // namespace dpr::uds
