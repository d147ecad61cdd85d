#include "granula/serve/service.h"

#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "granula/archive/gba.h"

namespace granula::serve {

namespace {

using core::ArchiveRepository;

// FNV-1a over the fields that identify one saved archive state. The saved
// time is the load-bearing input: Save() overwriting a name bumps it, so
// the old tag stops validating (tests pin this across an overwrite).
uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashEntry(const ArchiveRepository::Entry& entry, uint64_t h) {
  h = Fnv1a(entry.name, h);
  h = Fnv1a(StrFormat("|%lld|%llu|%.17g|",
                      static_cast<long long>(entry.saved_unix_seconds),
                      static_cast<unsigned long long>(entry.operations),
                      entry.total_seconds),
            h);
  h = Fnv1a(core::ArchiveFormatName(entry.format), h);
  return h;
}

constexpr uint64_t kFnvSeed = 1469598103934665603ull;

std::string QuoteTag(uint64_t h) {
  return StrFormat("\"g%016llx\"", static_cast<unsigned long long>(h));
}

// Weak list matching is fine here: tags are opaque hex tokens, so a
// substring hit on the exact quoted tag cannot false-positive.
bool IfNoneMatchHits(const HttpRequest& request, const std::string& tag) {
  std::string header = request.Header("If-None-Match");
  if (header.empty()) return false;
  if (header == "*") return true;
  return header.find(tag) != std::string::npos;
}

std::string_view SeverityName(core::Severity severity) {
  switch (severity) {
    case core::Severity::kInfo: return "info";
    case core::Severity::kWarning: return "warning";
    case core::Severity::kCritical: return "critical";
  }
  return "info";
}

Json EntryToJson(const ArchiveRepository::Entry& entry) {
  Json j = Json::MakeObject();
  j["name"] = entry.name;
  j["platform"] = entry.platform;
  j["algorithm"] = entry.algorithm;
  j["status"] = entry.status;
  j["total_seconds"] = entry.total_seconds;
  j["operations"] = entry.operations;
  j["saved_unix_seconds"] = entry.saved_unix_seconds;
  j["format"] = core::ArchiveFormatName(entry.format);
  return j;
}

HttpResponse JsonResponse(Json body, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump(2);
  response.body.push_back('\n');
  return response;
}

HttpResponse NotModified(const std::string& tag) {
  HttpResponse response;
  response.status = 304;
  response.content_type.clear();
  response.headers.emplace_back("ETag", tag);
  return response;
}

bool WantsGba(const HttpRequest& request) {
  auto it = request.query.find("format");
  if (it != request.query.end()) return it->second == "gba";
  return request.Header("Accept").find("application/x-granula-gba") !=
         std::string::npos;
}

}  // namespace

HttpResponse MakeErrorResponse(int status, std::string_view code,
                               std::string_view message) {
  Json error = Json::MakeObject();
  error["code"] = code;
  error["message"] = message;
  Json body = Json::MakeObject();
  body["error"] = std::move(error);
  return JsonResponse(std::move(body), status);
}

HttpResponse StatusToResponse(const Status& status) {
  int http = 500;
  switch (status.code()) {
    case StatusCode::kNotFound:
      http = 404;
      break;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      http = 400;
      break;
    default:
      http = 500;  // IoError/Corruption/Internal: the server's fault
      break;
  }
  return MakeErrorResponse(http, StatusCodeName(status.code()),
                           status.message());
}

void LatencyHistogram::Record(uint64_t micros) {
  int bucket = 0;
  while (bucket + 1 < kBuckets && (1ull << (bucket + 1)) <= micros) ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_micros_.compare_exchange_weak(seen, micros,
                                            std::memory_order_relaxed)) {
  }
}

Json LatencyHistogram::ToJson() const {
  Json j = Json::MakeObject();
  j["unit"] = "microseconds_pow2_buckets";
  j["count"] = count_.load(std::memory_order_relaxed);
  j["max_us"] = max_micros_.load(std::memory_order_relaxed);
  Json buckets = Json::MakeArray();
  int last = kBuckets - 1;
  while (last > 0 && buckets_[last].load(std::memory_order_relaxed) == 0) {
    --last;
  }
  for (int i = 0; i <= last; ++i) {
    buckets.Append(buckets_[i].load(std::memory_order_relaxed));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

HttpResponse ArchiveService::Handle(const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  counters_.requests.fetch_add(1, std::memory_order_relaxed);

  HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response = MakeErrorResponse(
        405, "method_not_allowed",
        StrFormat("method %s is not supported (the archive service is "
                  "read-only)",
                  request.method.c_str()));
    response.headers.emplace_back("Allow", "GET, HEAD");
  } else {
    response = Route(request);
  }

  if (response.status == 304) {
    counters_.not_modified.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status < 400) {
    counters_.ok.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status < 500) {
    counters_.client_errors.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.server_errors.fetch_add(1, std::memory_order_relaxed);
  }

  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  latency_.Record(micros < 0 ? 0 : static_cast<uint64_t>(micros));
  return response;
}

HttpResponse ArchiveService::Route(const HttpRequest& request) {
  const auto& seg = request.segments;
  if (seg.empty()) {
    Json j = Json::MakeObject();
    j["service"] = "granula-serve";
    Json endpoints = Json::MakeArray();
    endpoints.Append("/archives");
    endpoints.Append("/archives?platform=&algorithm=&status=&since=&until=");
    endpoints.Append("/archives/<name>");
    endpoints.Append("/archives/<name>?depth=N");
    endpoints.Append("/archives/<name>/subtree/<path>");
    endpoints.Append("/archives/<name>/findings");
    endpoints.Append("/archives/<name>/quarantine");
    endpoints.Append("/stats");
    j["endpoints"] = std::move(endpoints);
    return JsonResponse(std::move(j));
  }
  if (seg[0] == "stats" && seg.size() == 1) return GetStats();
  if (seg[0] == "archives") {
    if (seg.size() == 1) return ListArchives(request);
    const std::string& name = seg[1];
    if (seg.size() == 2) return GetArchive(request, name);
    if (seg[2] == "findings" && seg.size() == 3) return GetFindings(name);
    if (seg[2] == "quarantine" && seg.size() == 3) {
      return GetQuarantine(name);
    }
    if (seg[2] == "subtree" && seg.size() > 3) {
      std::vector<std::string> parts(seg.begin() + 3, seg.end());
      return GetSubtree(request, name, StrJoin(parts, "/"));
    }
  }
  return MakeErrorResponse(
      404, "not_found",
      StrFormat("no route for '%s'", request.path.c_str()));
}

HttpResponse ArchiveService::ListArchives(const HttpRequest& request) {
  ArchiveRepository::Query query;
  for (const auto& [key, value] : request.query) {
    if (key == "platform") {
      query.platform = value;
    } else if (key == "algorithm") {
      query.algorithm = value;
    } else if (key == "status") {
      query.status = value;
    } else if (key == "since" || key == "until") {
      auto parsed = ParseUint64(value);
      if (!parsed.ok() ||
          *parsed > static_cast<uint64_t>(
                        std::numeric_limits<int64_t>::max())) {
        return MakeErrorResponse(
            400, "invalid_argument",
            StrFormat("bad %s '%s': expected unix seconds", key.c_str(),
                      value.c_str()));
      }
      (key == "since" ? query.saved_since : query.saved_until) =
          static_cast<int64_t>(*parsed);
    } else {
      return MakeErrorResponse(
          400, "invalid_argument",
          StrFormat("unknown query parameter '%s' (expected platform, "
                    "algorithm, status, since, until)",
                    key.c_str()));
    }
  }

  auto selected = repository_->Select(query);
  if (!selected.ok()) return StatusToResponse(selected.status());

  // List ETag = hash over every matched entry: any save, overwrite, or
  // removal that changes the answer changes the tag ("index generation").
  uint64_t h = kFnvSeed;
  for (const auto& entry : *selected) h = HashEntry(entry, h);
  const std::string tag = QuoteTag(h);
  if (IfNoneMatchHits(request, tag)) return NotModified(tag);

  Json body = Json::MakeObject();
  Json archives = Json::MakeArray();
  for (const auto& entry : *selected) archives.Append(EntryToJson(entry));
  body["count"] = static_cast<uint64_t>(selected->size());
  body["archives"] = std::move(archives);
  HttpResponse response = JsonResponse(std::move(body));
  response.headers.emplace_back("ETag", tag);
  return response;
}

std::string ArchiveService::EntryTag(const std::string& name, bool* found) {
  *found = false;
  auto entries = repository_->List();
  if (!entries.ok()) return "";
  for (const auto& entry : *entries) {
    if (entry.name == name) {
      *found = true;
      return QuoteTag(HashEntry(entry, kFnvSeed));
    }
  }
  return "";
}

HttpResponse ArchiveService::GetArchive(const HttpRequest& request,
                                        const std::string& name) {
  bool found = false;
  const std::string tag = EntryTag(name, &found);
  if (!found) {
    return MakeErrorResponse(
        404, "not_found", StrFormat("no archive named '%s'", name.c_str()));
  }
  if (IfNoneMatchHits(request, tag)) return NotModified(tag);

  int levels = 0;  // full load
  auto depth_it = request.query.find("depth");
  if (depth_it != request.query.end()) {
    auto parsed = ParseUint64(depth_it->second);
    if (!parsed.ok() || *parsed == 0 || *parsed > 1000000) {
      return MakeErrorResponse(
          400, "invalid_argument",
          StrFormat("bad depth '%s': expected a positive level count",
                    depth_it->second.c_str()));
    }
    levels = static_cast<int>(*parsed);
  }

  auto archive = repository_->Load(name, levels);
  if (!archive.ok()) return StatusToResponse(archive.status());

  HttpResponse response;
  response.body = archive->ToJsonString(2);
  response.headers.emplace_back("ETag", tag);
  return response;
}

HttpResponse ArchiveService::GetSubtree(const HttpRequest& request,
                                        const std::string& name,
                                        const std::string& path) {
  bool found = false;
  std::string tag = EntryTag(name, &found);
  if (!found) {
    return MakeErrorResponse(
        404, "not_found", StrFormat("no archive named '%s'", name.c_str()));
  }
  // The subtree tag folds the path in so distinct subtrees of one archive
  // carry distinct validators.
  tag = QuoteTag(Fnv1a(path, Fnv1a(tag, kFnvSeed)));
  if (IfNoneMatchHits(request, tag)) return NotModified(tag);

  const bool gba = WantsGba(request);
  HttpResponse response;
  if (gba) response.content_type = "application/x-granula-gba";
  response.headers.emplace_back("ETag", tag);

  // Serialized-body LRU, keyed on the validator plus the negotiated
  // format: a hit is the exact bytes a fresh fetch would produce, so the
  // decode AND the serialization are both skipped.
  const std::string cache_key = tag + (gba ? "|gba" : "|json");
  if (auto cached = ResponseCacheGet(cache_key)) {
    response.body = *cached;
    return response;
  }

  auto subtree = repository_->FetchSubtree(name, path);
  if (!subtree.ok()) return StatusToResponse(subtree.status());

  if (gba) {
    response.body = core::EncodeGbaSubtree(**subtree);
  } else {
    response.body = (*subtree)->ToJson().Dump(2);
    response.body.push_back('\n');
  }
  ResponseCachePut(cache_key, response.body);
  return response;
}

std::shared_ptr<const std::string> ArchiveService::ResponseCacheGet(
    const std::string& key) {
  if (options_.response_cache_capacity == 0) return nullptr;
  std::lock_guard<std::mutex> lock(response_mu_);
  auto it = response_cache_.find(key);
  if (it == response_cache_.end()) {
    ++response_stats_.misses;
    return nullptr;
  }
  ++response_stats_.hits;
  response_lru_.splice(response_lru_.begin(), response_lru_,
                       it->second.lru_it);
  return it->second.body;
}

void ArchiveService::ResponseCachePut(const std::string& key,
                                      std::string body) {
  if (options_.response_cache_capacity == 0) return;
  std::lock_guard<std::mutex> lock(response_mu_);
  if (response_cache_.count(key) != 0) return;  // racing fill, keep first
  while (response_cache_.size() >= options_.response_cache_capacity) {
    response_cache_.erase(response_lru_.back());
    response_lru_.pop_back();
    ++response_stats_.evictions;
  }
  response_lru_.push_front(key);
  response_cache_.emplace(
      key, ResponseSlot{std::make_shared<const std::string>(std::move(body)),
                        response_lru_.begin()});
}

HttpResponse ArchiveService::GetFindings(const std::string& name) {
  // Zero-copy: the detectors walk an ArchiveView over the mapped body
  // instead of decoding the whole operation tree into memory.
  std::vector<core::Finding> findings;
  Status scanned = repository_->ScanArchive(
      name, [&](const core::ArchiveView& view) {
        findings = core::AnalyzeChokepoints(view, options_.chokepoints);
        return Status::OK();
      });
  if (!scanned.ok()) return StatusToResponse(scanned);
  Json body = Json::MakeObject();
  body["archive"] = name;
  body["count"] = static_cast<uint64_t>(findings.size());
  Json array = Json::MakeArray();
  for (const core::Finding& finding : findings) {
    Json j = Json::MakeObject();
    j["kind"] = core::FindingKindName(finding.kind);
    j["severity"] = SeverityName(finding.severity);
    j["operation"] = finding.operation;
    j["description"] = finding.description;
    j["metric"] = finding.metric;
    array.Append(std::move(j));
  }
  body["findings"] = std::move(array);
  return JsonResponse(std::move(body));
}

HttpResponse ArchiveService::GetQuarantine(const std::string& name) {
  // Lint rows decode straight off the view — the operation tree is never
  // touched (same payload the old level-1 shallow load produced).
  core::LintReport lint;
  Status scanned = repository_->ScanArchive(
      name, [&](const core::ArchiveView& view) {
        auto decoded = view.DecodeLint();
        if (!decoded.ok()) return decoded.status();
        lint = std::move(*decoded);
        return Status::OK();
      });
  if (!scanned.ok()) return StatusToResponse(scanned);
  Json body = Json::MakeObject();
  body["archive"] = name;
  body["clean"] = lint.clean();
  body["quarantined"] = lint.ToJson();
  return JsonResponse(std::move(body));
}

HttpResponse ArchiveService::GetStats() {
  Json body = Json::MakeObject();

  Json requests = Json::MakeObject();
  requests["total"] = counters_.requests.load(std::memory_order_relaxed);
  requests["ok"] = counters_.ok.load(std::memory_order_relaxed);
  requests["not_modified"] =
      counters_.not_modified.load(std::memory_order_relaxed);
  requests["client_errors"] =
      counters_.client_errors.load(std::memory_order_relaxed);
  requests["server_errors"] =
      counters_.server_errors.load(std::memory_order_relaxed);
  body["requests"] = std::move(requests);

  Json transport = Json::MakeObject();
  transport["connections"] =
      transport_.connections.load(std::memory_order_relaxed);
  transport["rejected"] = transport_.rejected.load(std::memory_order_relaxed);
  transport["timeouts"] = transport_.timeouts.load(std::memory_order_relaxed);
  body["transport"] = std::move(transport);

  const ArchiveRepository::CacheStats cache = repository_->cache_stats();
  Json cache_json = Json::MakeObject();
  cache_json["hits"] = cache.hits;
  cache_json["misses"] = cache.misses;
  cache_json["evictions"] = cache.evictions;
  body["subtree_cache"] = std::move(cache_json);

  Json response_json = Json::MakeObject();
  {
    std::lock_guard<std::mutex> lock(response_mu_);
    response_json["hits"] = response_stats_.hits;
    response_json["misses"] = response_stats_.misses;
    response_json["evictions"] = response_stats_.evictions;
    response_json["entries"] = static_cast<uint64_t>(response_cache_.size());
  }
  body["response_cache"] = std::move(response_json);

  const ArchiveRepository::ViewScanStats scan = ArchiveRepository::ScanStats();
  Json scan_json = Json::MakeObject();
  scan_json["archives_scanned"] = scan.archives_scanned;
  scan_json["bytes_mapped"] = scan.bytes_mapped;
  body["view_scan"] = std::move(scan_json);

  body["body_reads"] = ArchiveRepository::BodyReadCount();
  body["latency"] = latency_.ToJson();
  return JsonResponse(std::move(body));
}

}  // namespace granula::serve
