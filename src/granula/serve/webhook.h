#ifndef GRANULA_GRANULA_SERVE_WEBHOOK_H_
#define GRANULA_GRANULA_SERVE_WEBHOOK_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "granula/live/retry_sink.h"
#include "granula/serve/http.h"

namespace granula::serve {

// POSTs each alert to a webhook URL (http://HOST[:PORT][/PATH], port 80
// by default); any response whose status is 2xx counts as delivered,
// everything else (refused connect, timeout, 5xx, garbage) is a failed
// attempt. Wrapped in a core::RetryingAlertSink by `granula fleet`.
class WebhookDelivery : public core::AlertDelivery {
 public:
  static Result<std::unique_ptr<WebhookDelivery>> Open(
      const std::string& url, int timeout_ms = 1000);
  Status Deliver(const std::string& alert_json) override;
  std::string describe() const override { return url_text_; }

 private:
  WebhookDelivery(HttpUrl url, std::string url_text, int timeout_ms)
      : url_(std::move(url)),
        url_text_(std::move(url_text)),
        timeout_ms_(timeout_ms) {}
  HttpUrl url_;
  std::string url_text_;
  int timeout_ms_;
};

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_WEBHOOK_H_
