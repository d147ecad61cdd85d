#include "granula/serve/webhook.h"

#include <utility>

#include "common/socket.h"
#include "common/strings.h"

namespace granula::serve {

Result<std::unique_ptr<WebhookDelivery>> WebhookDelivery::Open(
    const std::string& url, int timeout_ms) {
  GRANULA_ASSIGN_OR_RETURN(HttpUrl parsed, ParseHttpUrl(url));
  return std::unique_ptr<WebhookDelivery>(
      new WebhookDelivery(std::move(parsed), url, timeout_ms));
}

Status WebhookDelivery::Deliver(const std::string& alert_json) {
  GRANULA_ASSIGN_OR_RETURN(TcpSocket socket,
                           TcpConnect(url_.host, url_.port, timeout_ms_));
  GRANULA_RETURN_IF_ERROR(socket.SetTimeouts(timeout_ms_, timeout_ms_));
  GRANULA_RETURN_IF_ERROR(socket.WriteAll(
      SerializeHttpRequest("POST", url_, "application/json", alert_json, {},
                           /*keep_alive=*/false)));
  // Only the status matters; a peer that sends no complete response head
  // within the timeout has not accepted the alert.
  std::string response;
  HttpResponseHead head;
  size_t consumed = 0;
  for (;;) {
    Result<bool> parsed = ParseHttpResponseHead(response, &head, &consumed);
    if (!parsed.ok()) {
      return Status::IoError("webhook sent a garbled response head (" +
                             parsed.status().message() + "): " + url_text_);
    }
    if (*parsed) break;
    TcpSocket::ReadOutcome outcome = socket.Read(response);
    if (outcome == TcpSocket::ReadOutcome::kTimeout) {
      return Status::IoError("webhook response timed out: " + url_text_);
    }
    if (outcome != TcpSocket::ReadOutcome::kData) {
      return Status::IoError("webhook sent no HTTP response head: " +
                             url_text_);
    }
  }
  if (head.status < 200 || head.status >= 300) {
    return Status::IoError(
        StrFormat("webhook answered %d: %s", head.status, url_text_.c_str()));
  }
  return Status::OK();
}

}  // namespace granula::serve
