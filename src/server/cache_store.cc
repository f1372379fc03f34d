#include "server/cache_store.h"

#include <cstring>

#include "server/protocol.h"

namespace graphalign {

namespace {

// Values are response bodies, already bounded by the frame cap.
constexpr RecordLog::Format kCacheLog = {
    .magic = {'G', 'A', 'R', '1'},
    .file_name = "cache.log",
    .min_payload = sizeof(uint64_t),
    .max_payload = kMaxFramePayload + sizeof(uint64_t),
    .failpoint_prefix = "server.cache",
    .sync_appends = false,
};

// A record's payload: the key's bytes followed by the value.
std::string KeyedPayload(uint64_t key, const std::string& value) {
  std::string payload;
  payload.reserve(sizeof(key) + value.size());
  payload.append(reinterpret_cast<const char*>(&key), sizeof(key));
  payload.append(value);
  return payload;
}

}  // namespace

Result<std::unique_ptr<CacheStore>> CacheStore::Open(
    const std::string& dir,
    const std::function<void(uint64_t key, std::string value)>& on_record,
    ReplayStats* stats) {
  GA_ASSIGN_OR_RETURN(
      std::unique_ptr<RecordLog> log,
      RecordLog::Open(
          dir, kCacheLog,
          [&on_record](std::string_view payload) {
            uint64_t key = 0;
            std::memcpy(&key, payload.data(), sizeof(key));
            if (on_record) {
              on_record(key, std::string(payload.substr(sizeof(key))));
            }
          },
          stats));
  return std::unique_ptr<CacheStore>(new CacheStore(std::move(log)));
}

void CacheStore::Append(uint64_t key, const std::string& value) {
  (void)log_->Append(KeyedPayload(key, value));
}

Status CacheStore::Compact(
    const std::vector<std::pair<uint64_t, std::string>>& live) {
  std::vector<std::string> payloads;
  payloads.reserve(live.size());
  for (const auto& [key, value] : live) {
    payloads.push_back(KeyedPayload(key, value));
  }
  return log_->Compact(payloads);
}

}  // namespace graphalign
