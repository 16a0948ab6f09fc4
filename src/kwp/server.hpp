#pragma once
// KWP 2000 server: application layer of a KWP ECU. Holds the local-id
// registry (each local id yields 1..m 3-byte ESV records per Fig. 3) and
// the IO-control registries for local and common identifiers. Fault
// envelope, S3 timer, reboots and the 0x27 seed/key exchange come from
// diag::ServerCore, with KWP's dialect: S3 expiry ends the session but
// keeps security unlocked, and a short 0x27 request answers 0x12.

#include <functional>
#include <map>
#include <optional>

#include "diag/server_core.hpp"
#include "kwp/message.hpp"

namespace dpr::kwp {

/// Produces the current ESV records for one local identifier.
using LocalIdReader = std::function<std::vector<EsvRecord>()>;

/// Handles an ECU-control record; returns the control status bytes for the
/// positive response, or nullopt to reject with requestOutOfRange.
using IoHandler =
    std::function<std::optional<util::Bytes>(std::span<const std::uint8_t>)>;

class Server : public diag::ServerCore {
 public:
  Server();

  void add_local_id(std::uint8_t local_id, LocalIdReader reader);
  void add_io_local(std::uint8_t local_id, IoHandler handler);
  void add_io_common(std::uint16_t common_id, IoHandler handler);

  /// ECU identification data returned by readEcuIdentification (0x1A) —
  /// part numbers / VIN / coding, typically a long multi-frame response.
  void set_identification(util::Bytes data) {
    identification_ = std::move(data);
  }

  /// Stored DTC (ISO 14230-3 0x18 readDTCsByStatus / 0x14 clear).
  struct Dtc {
    std::uint16_t code = 0;
    std::uint8_t status = 0xE0;
  };
  void add_dtc(std::uint16_t code, std::uint8_t status = 0xE0);
  const std::vector<Dtc>& dtcs() const { return dtcs_; }

  /// Process one request, producing exactly one response message. With
  /// sessions armed, the IO-control services demand a running session
  /// (NRC 0x7F), which is what the diagtool supervisor keys recovery on.
  util::Bytes handle(std::span<const std::uint8_t> request);

  /// Full response sequence for one request (see
  /// diag::ServerCore::respond_with).
  std::vector<util::Bytes> respond(std::span<const std::uint8_t> request) {
    return respond_with(request, [this](std::span<const std::uint8_t> r) {
      return handle(r);
    });
  }

  /// Invoked at the moment a spontaneous reboot starts. K-Line ECUs hook
  /// this to drop their wakeup state: after the boot the tester must issue
  /// a fresh fast-init/5-baud wakeup before any session restarts.
  void set_reset_hook(std::function<void()> hook) {
    reset_hook_ = std::move(hook);
  }

  /// Bind to a transport (request in, responses out on the same link).
  void bind(util::MessageLink& link) { diag::bind(*this, link); }

  bool session_started() const { return session_ != kNoSession; }

 private:
  /// session_ values: KWP only tracks whether a session was started.
  static constexpr std::uint8_t kNoSession = 0x00;
  static constexpr std::uint8_t kSessionStarted = 0x01;

  std::map<std::uint8_t, LocalIdReader> local_ids_;
  std::map<std::uint8_t, IoHandler> io_local_;
  std::map<std::uint16_t, IoHandler> io_common_;
  util::Bytes identification_;
  std::vector<Dtc> dtcs_;
};

}  // namespace dpr::kwp
