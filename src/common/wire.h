// Bounds-checked little-endian (de)serialization primitives, and the field
// lists built on them.
//
// ByteWriter/ByteReader started life inside the server protocol
// (server/protocol.h) and moved here when the durable job journal
// (src/jobs) needed the same total-decoding discipline without pulling the
// whole protocol in: every component that persists or ships bytes — GAF1
// payloads, the cache log, the job journal — encodes with the writer and
// decodes with the reader, whose every getter returns false (and poisons
// the reader) on underflow so decoders can chain reads and check once.
//
// Every message that crosses a process boundary — GAF1 requests, responses
// and result bodies, the isolation helper's request and reply, the bench
// harness's cell outcome — lists its fields once, in wire order, as a
// function template over an archive (the serialize(Archive&) idiom):
//
//   template <typename Ar>
//   void Fields(Ar& ar, Msg<Job> auto& job) {
//     ar.U64(job.id);
//     ar.Str(job.name, kMaxNameLen);   // Capped when decoding.
//     ar.U8(job.kind, Kind::kLast);    // Range-checked when decoding.
//     ar.List(job.runs, kMaxRuns, [&](auto& run) { ar.F64(run); });
//   }
//
// FieldWriter walks the list to encode; FieldReader walks the same list to
// decode. Caps, ranges and Check/Fail apply only to decoding: they are
// no-ops in the writer. The reader stops at the first failure and names it
// by the message passed to Fail, or else by the latest Context.
#ifndef GRAPHALIGN_COMMON_WIRE_H_
#define GRAPHALIGN_COMMON_WIRE_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace graphalign {

class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v);
  // u32 length followed by the raw bytes.
  void Str(std::string_view s);

  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// Every getter returns false (and leaves the reader poisoned) on underflow,
// so decoders can chain reads and check once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool F64(double* v);
  // Reads a u32-length-prefixed string of at most max_len bytes.
  bool Str(std::string* s, size_t max_len);

  // Poisons the reader: a decoder found the bytes wrong.
  void Fail() { failed_ = true; }
  bool failed() const { return failed_; }
  bool AtEnd() const { return !failed_ && pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool Take(size_t n, const char** p);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Field lists.

// A field list takes its message as `Msg<M> auto&`: `M` when decoding,
// `const M` when encoding.
template <typename T, typename M>
concept Msg = std::same_as<std::remove_const_t<T>, M>;

// Strings on a pipe between two processes of the same binary: no cap but
// the bytes themselves.
inline constexpr size_t kUncapped = SIZE_MAX;

class FieldWriter {
 public:
  // Integers of any type (enums and bools too) as the named wire width.
  template <typename T, typename Max = uint8_t>
  void U8(const T& v, Max = {}) { w_.U8(static_cast<uint8_t>(v)); }
  template <typename T, typename Max = uint32_t>
  void U32(const T& v, Max = {}) { w_.U32(static_cast<uint32_t>(v)); }
  template <typename T>
  void U64(const T& v, const char* /*name*/ = nullptr) {
    w_.U64(static_cast<uint64_t>(v));
  }
  void I32(int32_t v) { w_.I32(v); }
  void F64(double v, const char* /*name*/ = nullptr) { w_.F64(v); }
  void Str(std::string_view s, size_t /*max_len*/) { w_.Str(s); }
  // A u32 count (u64 for List64), then each item's fields.
  template <typename V, typename Fn>
  void List(const V& items, uint64_t /*max*/, Fn&& each,
            const char* /*name*/ = nullptr) {
    w_.U32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) each(item);
  }
  template <typename V, typename Fn>
  void List64(const V& items, uint64_t /*max*/, Fn&& each) {
    w_.U64(items.size());
    for (const auto& item : items) each(item);
  }
  // A nested message, as the length-prefixed string of its own encoding.
  template <typename T, typename Encode, typename Decode>
  void Nested(const T& v, Encode encode, Decode) {
    w_.Str(encode(v));
  }
  void Context(const char*) {}
  void Check(bool) {}
  void Fail(const std::string&) {}
  void End() {}

  std::string Take() { return w_.Take(); }

 private:
  ByteWriter w_;
};

class FieldReader {
 public:
  // `context` names a failure until the field list sets another.
  FieldReader(std::string_view bytes, const char* context)
      : r_(bytes), context_(context) {}

  // Reads the wire width into any integer, enum or bool field (a bool is
  // true when the byte is non-zero); fails above `max`.
  template <typename T, typename Max = uint8_t>
  void U8(T& v, Max max = UINT8_MAX) { Int<uint8_t>(v, max); }
  template <typename T, typename Max = uint32_t>
  void U32(T& v, Max max = UINT32_MAX) { Int<uint32_t>(v, max); }
  template <typename T>
  void U64(T& v, const char* /*name*/ = nullptr) {
    Int<uint64_t>(v, UINT64_MAX);
  }
  void I32(int32_t& v) { Check(r_.I32(&v)); }
  void F64(double& v, const char* /*name*/ = nullptr) { Check(r_.F64(&v)); }
  void Str(std::string& s, size_t max_len) { Check(r_.Str(&s, max_len)); }
  // A u32 count of at most `max` (u64 for List64), then each item's
  // fields. Reserves no more items than there are bytes left.
  template <typename V, typename Fn>
  void List(V& items, uint64_t max, Fn&& each, const char* = nullptr) {
    Items<uint32_t>(items, max, each);
  }
  template <typename V, typename Fn>
  void List64(V& items, uint64_t max, Fn&& each) {
    Items<uint64_t>(items, max, each);
  }
  template <typename T, typename Encode, typename Decode>
  void Nested(T& v, Encode, Decode decode) {
    std::string bytes;
    Str(bytes, SIZE_MAX);
    if (failed_) return;
    auto decoded = decode(bytes);
    if (!decoded.ok()) return Fail(context_);
    v = *std::move(decoded);
  }
  void Context(const char* context) { context_ = context; }
  void Check(bool ok) {
    if (!ok) Fail(context_);
  }
  // Only the first failure is kept; every later read fails.
  void Fail(const std::string& message) {
    if (!failed_) error_ = message;
    failed_ = true;
    r_.Fail();
  }
  // No bytes may follow the message.
  void End() { Check(r_.AtEnd()); }

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

 private:
  bool Get(uint8_t* v) { return r_.U8(v); }
  bool Get(uint32_t* v) { return r_.U32(v); }
  bool Get(uint64_t* v) { return r_.U64(v); }

  template <typename Wire, typename T, typename Max>
  void Int(T& v, Max max) {
    Wire raw = 0;
    if (!Get(&raw) || raw > static_cast<uint64_t>(max)) return Fail(context_);
    v = static_cast<T>(raw);
  }

  template <typename Count, typename V, typename Fn>
  void Items(V& items, uint64_t max, Fn& each) {
    Count n = 0;
    if (!Get(&n) || n > max) return Fail(context_);
    items.clear();
    items.reserve(std::min<uint64_t>(n, r_.remaining()));
    for (Count i = 0; i < n && !failed_; ++i) each(items.emplace_back());
  }

  ByteReader r_;
  const char* context_;
  bool failed_ = false;
  std::string error_;
};

// Encodes `message` by its field list, Fields(ar, message), which must be
// declared in the message's namespace.
template <typename T>
std::string EncodeFields(const T& message) {
  FieldWriter w;
  Fields(w, message);
  return w.Take();
}

// Decodes the whole of `r` into `message` by its field list; bytes left
// over fail as `trailing`. False when `r` does not hold one message
// (r.error() says why).
template <typename T>
bool DecodeFields(FieldReader& r, T& message, const char* trailing) {
  Fields(r, message);
  r.Context(trailing);
  r.End();
  return !r.failed();
}

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_WIRE_H_
