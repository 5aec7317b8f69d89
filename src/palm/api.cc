#include "palm/api.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "palm/query_cache.h"
#include "palm/quota.h"
#include "palm/sharded_index.h"
#include "palm/sharded_streaming_index.h"
#include "series/series.h"
#include "storage/io_scope.h"
#include "stream/epoch.h"

namespace coconut {
namespace palm {
namespace api {

// --------------------------------------------------------------- errors

const char* StatusCodeToApiCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kNotSupported:
      return "not_supported";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnauthenticated:
      return "unauthenticated";
    case StatusCode::kDataLoss:
      return "data_loss";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "internal";
}

int StatusCodeToHttpStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kNotSupported:
      return 501;
    case StatusCode::kUnauthenticated:
      return 401;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return 500;
  }
  return 500;
}

Status ValidateName(const std::string& name, const char* what) {
  constexpr size_t kMaxNameLength = 128;
  if (name.empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   " name must not be empty");
  }
  if (name.size() > kMaxNameLength) {
    return Status::InvalidArgument(std::string(what) + " name exceeds " +
                                   std::to_string(kMaxNameLength) +
                                   " characters");
  }
  if (name == "." || name == "..") {
    return Status::InvalidArgument(std::string(what) + " name '" + name +
                                   "' is reserved");
  }
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          std::string(what) +
          " name may only contain [A-Za-z0-9_.-] characters");
    }
  }
  return Status::OK();
}

namespace {

/// Hard caps on attacker-declared sizes: wire fields that drive
/// allocations before any payload bytes constrain them (an empty "series"
/// with a huge "series_length", heat map bin counts) are bounded here so
/// a hostile request yields InvalidArgument, not std::bad_alloc.
constexpr uint64_t kMaxSeriesLength = 1u << 20;
constexpr uint64_t kMaxHeatMapBinsPerAxis = 4096;
/// Caps for wire-supplied VariantSpec knobs that size buffers, spawn
/// threads, or create per-shard storage stacks. Generous relative to any
/// real configuration, but small enough that one request cannot exhaust
/// the host before factory validation even runs.
constexpr uint64_t kMaxWireThreads = 1024;
constexpr uint64_t kMaxWireShards = 1024;
constexpr uint64_t kMaxWireBufferEntries = 1u << 24;
constexpr uint64_t kMaxWireMemoryBudgetBytes = 1ull << 36;  // 64 GiB
constexpr uint64_t kMaxWireLeafCapacity = 1u << 24;
constexpr int64_t kMaxWireSmallInt = 1024;  // growth_factor, btp_merge_k
/// Each in-flight seal pins up to buffer_entries series in memory; the cap
/// on the cap keeps a hostile spec from authorizing unbounded pinning.
constexpr uint64_t kMaxWireInflightSeals = 1u << 16;

int ApiCodeToHttpStatus(const std::string& code) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    const StatusCode sc = static_cast<StatusCode>(c);
    if (code == StatusCodeToApiCode(sc)) return StatusCodeToHttpStatus(sc);
  }
  return 500;
}

// ------------------------------------------- field extraction helpers

Status ExpectObject(const JsonValue& value, const char* what) {
  if (!value.is_object()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": expected a JSON object");
  }
  return Status::OK();
}

/// Strict wire contract: a request naming fields the server does not know
/// is rejected, not silently half-honored.
Status RejectUnknown(const JsonValue& obj, const char* what,
                     std::initializer_list<std::string_view> allowed) {
  for (const JsonValue::Member& m : obj.object()) {
    if (std::find(allowed.begin(), allowed.end(), m.first) == allowed.end()) {
      return Status::InvalidArgument(std::string(what) + ": unknown field '" +
                                     m.first + "'");
    }
  }
  return Status::OK();
}

Status FieldError(const char* what, const char* key, const char* need) {
  return Status::InvalidArgument(std::string(what) + ": field '" + key +
                                 "' " + need);
}

Status OptString(const JsonValue& obj, const char* key, const char* what,
                 std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) return FieldError(what, key, "must be a string");
  *out = v->string_value();
  return Status::OK();
}

Result<std::string> ReqString(const JsonValue& obj, const char* key,
                              const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is required");
  if (!v->is_string()) return FieldError(what, key, "must be a string");
  return v->string_value();
}

Status OptBool(const JsonValue& obj, const char* key, const char* what,
               bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_bool()) return FieldError(what, key, "must be a boolean");
  *out = v->bool_value();
  return Status::OK();
}

Status OptUint(const JsonValue& obj, const char* key, const char* what,
               uint64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) return FieldError(what, key, "must be a number");
  Result<uint64_t> r = v->AsUint64();
  if (!r.ok()) {
    return FieldError(what, key, "must be a non-negative integer");
  }
  *out = r.value();
  return Status::OK();
}

Status OptInt(const JsonValue& obj, const char* key, const char* what,
              int64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) return FieldError(what, key, "must be a number");
  Result<int64_t> r = v->AsInt64();
  if (!r.ok()) return FieldError(what, key, "must be an integer");
  *out = r.value();
  return Status::OK();
}

/// Range-checked variants for wire fields that are narrowed to int/size_t
/// or drive allocations and thread counts: out-of-range values are
/// rejected instead of silently truncated or honored at host-exhausting
/// magnitudes.
Status OptUintInRange(const JsonValue& obj, const char* key,
                      const char* what, uint64_t* out, uint64_t max) {
  COCONUT_RETURN_NOT_OK(OptUint(obj, key, what, out));
  if (*out > max) {
    return Status::InvalidArgument(std::string(what) + ": field '" + key +
                                   "' must be at most " +
                                   std::to_string(max));
  }
  return Status::OK();
}

Status OptIntInRange(const JsonValue& obj, const char* key, const char* what,
                     int64_t* out, int64_t min, int64_t max) {
  COCONUT_RETURN_NOT_OK(OptInt(obj, key, what, out));
  if (*out < min || *out > max) {
    return Status::InvalidArgument(
        std::string(what) + ": field '" + key + "' must be in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return Status::OK();
}

Status OptDouble(const JsonValue& obj, const char* key, const char* what,
                 double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) return FieldError(what, key, "must be a number");
  *out = v->AsDouble();
  return Status::OK();
}

Result<uint64_t> ReqUint(const JsonValue& obj, const char* key,
                         const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is required");
  if (!v->is_number()) return FieldError(what, key, "must be a number");
  Result<uint64_t> r = v->AsUint64();
  if (!r.ok()) {
    return FieldError(what, key, "must be a non-negative integer");
  }
  return r.value();
}

Result<double> ReqDouble(const JsonValue& obj, const char* key,
                         const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is required");
  if (!v->is_number()) return FieldError(what, key, "must be a number");
  return v->AsDouble();
}

Result<bool> ReqBool(const JsonValue& obj, const char* key,
                     const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is required");
  if (!v->is_bool()) return FieldError(what, key, "must be a boolean");
  return v->bool_value();
}

/// Shared by register_dataset and ingest_batch: reads "series" (array of
/// equal-length arrays of numbers) plus optional "series_length" into a
/// SeriesCollection, rejecting ragged input.
Result<series::SeriesCollection> ParseSeriesMatrix(const JsonValue& obj,
                                                   const char* what) {
  const JsonValue* arr = obj.Find("series");
  if (arr == nullptr) return FieldError(what, "series", "is required");
  if (!arr->is_array()) {
    return FieldError(what, "series", "must be an array of series");
  }
  uint64_t length = 0;
  bool have_length = false;
  if (const JsonValue* l = obj.Find("series_length"); l != nullptr) {
    if (!l->is_number() || !l->AsUint64().ok()) {
      return FieldError(what, "series_length",
                        "must be a non-negative integer");
    }
    length = l->AsUint64().value();
    have_length = true;
  }
  if (!have_length) {
    if (arr->array_size() == 0) {
      return Status::InvalidArgument(
          std::string(what) +
          ": empty 'series' requires an explicit 'series_length'");
    }
    // A packed outer array means the elements are numbers, not rows.
    if (arr->is_packed_array()) {
      return FieldError(what, "series", "must contain arrays of numbers");
    }
    const JsonValue& first = arr->array().front();
    if (!first.is_array()) {
      return FieldError(what, "series", "must contain arrays of numbers");
    }
    length = first.array_size();
  }
  if (length == 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": series length must be positive");
  }
  if (length > kMaxSeriesLength) {
    return Status::InvalidArgument(
        std::string(what) + ": series length " + std::to_string(length) +
        " exceeds the maximum of " + std::to_string(kMaxSeriesLength));
  }
  if (arr->is_packed_array() && arr->array_size() != 0) {
    // Numbers where rows were expected (with an explicit series_length
    // the first branch above didn't reject this shape).
    return Status::InvalidArgument(
        std::string(what) +
        ": series 0 does not have the expected length " +
        std::to_string(length));
  }
  series::SeriesCollection collection(static_cast<size_t>(length));
  collection.Reserve(arr->array_size());
  std::vector<float> buf;
  buf.reserve(static_cast<size_t>(length));
  for (size_t i = 0; i < arr->array().size(); ++i) {
    const JsonValue& row = arr->array()[i];
    if (!row.is_array() || row.array_size() != length) {
      return Status::InvalidArgument(
          std::string(what) + ": series " + std::to_string(i) +
          " does not have the expected length " + std::to_string(length));
    }
    buf.clear();
    if (row.is_packed_array()) {
      for (const double v : row.packed_numbers()) {
        buf.push_back(static_cast<float>(v));
      }
    } else {
      for (const JsonValue& v : row.array()) {
        if (!v.is_number()) {
          return Status::InvalidArgument(std::string(what) + ": series " +
                                         std::to_string(i) +
                                         " contains a non-numeric value");
        }
        buf.push_back(static_cast<float>(v.AsDouble()));
      }
    }
    collection.Append(buf);
  }
  return collection;
}

void WriteSeriesMatrix(const series::SeriesCollection& collection,
                       JsonWriter* w) {
  w->Field("series_length", static_cast<uint64_t>(collection.length()));
  w->Key("series");
  w->BeginArray();
  for (size_t i = 0; i < collection.size(); ++i) {
    w->BeginArray();
    for (const float v : collection[i]) w->Double(v);
    w->EndArray();
  }
  w->EndArray();
}

Result<std::vector<int64_t>> ParseTimestamps(const JsonValue& arr,
                                             const char* what) {
  if (!arr.is_array()) {
    return FieldError(what, "timestamps", "must be an array of integers");
  }
  std::vector<int64_t> out;
  const size_t n = arr.array_size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!arr.element_is_number(i)) {
      return FieldError(what, "timestamps", "must contain only integers");
    }
    Result<int64_t> v = arr.ElementAsInt64(i);
    if (!v.ok()) {
      return FieldError(what, "timestamps", "must contain only integers");
    }
    out.push_back(v.value());
  }
  return out;
}

void WriteTimestamps(const std::vector<int64_t>& timestamps, JsonWriter* w) {
  w->Key("timestamps");
  w->BeginArray();
  for (const int64_t t : timestamps) w->Int(t);
  w->EndArray();
}

// ----------------------------------------------- enum spellings on wire

const char* FamilyToWire(IndexFamily family) {
  switch (family) {
    case IndexFamily::kAds:
      return "ads";
    case IndexFamily::kCTree:
      return "ctree";
    case IndexFamily::kClsm:
      return "clsm";
  }
  return "ctree";
}

Result<IndexFamily> FamilyFromWire(const std::string& s, const char* what) {
  if (s == "ads") return IndexFamily::kAds;
  if (s == "ctree") return IndexFamily::kCTree;
  if (s == "clsm") return IndexFamily::kClsm;
  return Status::InvalidArgument(std::string(what) + ": unknown family '" +
                                 s + "' (want ads|ctree|clsm)");
}

const char* ModeToWire(StreamMode mode) {
  switch (mode) {
    case StreamMode::kStatic:
      return "static";
    case StreamMode::kPP:
      return "pp";
    case StreamMode::kTP:
      return "tp";
    case StreamMode::kBTP:
      return "btp";
  }
  return "static";
}

Result<StreamMode> ModeFromWire(const std::string& s, const char* what) {
  if (s == "static") return StreamMode::kStatic;
  if (s == "pp") return StreamMode::kPP;
  if (s == "tp") return StreamMode::kTP;
  if (s == "btp") return StreamMode::kBTP;
  return Status::InvalidArgument(std::string(what) + ": unknown mode '" + s +
                                 "' (want static|pp|tp|btp)");
}

const char* BackpressureToWire(stream::BackpressurePolicy policy) {
  switch (policy) {
    case stream::BackpressurePolicy::kBlock:
      return "block";
    case stream::BackpressurePolicy::kReject:
      return "reject";
  }
  return "block";
}

Result<stream::BackpressurePolicy> BackpressureFromWire(const std::string& s,
                                                        const char* what) {
  if (s == "block") return stream::BackpressurePolicy::kBlock;
  if (s == "reject") return stream::BackpressurePolicy::kReject;
  return Status::InvalidArgument(std::string(what) +
                                 ": unknown backpressure_policy '" + s +
                                 "' (want block|reject)");
}

const char* PolicyToWire(stream::TimestampPolicy policy) {
  switch (policy) {
    case stream::TimestampPolicy::kPermissive:
      return "permissive";
    case stream::TimestampPolicy::kStrict:
      return "strict";
    case stream::TimestampPolicy::kClamp:
      return "clamp";
  }
  return "permissive";
}

Result<stream::TimestampPolicy> PolicyFromWire(const std::string& s,
                                               const char* what) {
  if (s == "permissive") return stream::TimestampPolicy::kPermissive;
  if (s == "strict") return stream::TimestampPolicy::kStrict;
  if (s == "clamp") return stream::TimestampPolicy::kClamp;
  return Status::InvalidArgument(std::string(what) +
                                 ": unknown timestamp_policy '" + s +
                                 "' (want permissive|strict|clamp)");
}

Result<series::SaxConfig> SaxFromJson(const JsonValue& value,
                                      const char* what) {
  COCONUT_RETURN_NOT_OK(ExpectObject(value, what));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, what, {"series_length", "num_segments", "bits_per_segment"}));
  series::SaxConfig sax;
  int64_t v;
  v = sax.series_length;
  COCONUT_RETURN_NOT_OK(
      OptIntInRange(value, "series_length", what, &v, 0,
                    static_cast<int64_t>(kMaxSeriesLength)));
  sax.series_length = static_cast<int>(v);
  v = sax.num_segments;
  COCONUT_RETURN_NOT_OK(
      OptIntInRange(value, "num_segments", what, &v, 0, 1 << 12));
  sax.num_segments = static_cast<int>(v);
  v = sax.bits_per_segment;
  COCONUT_RETURN_NOT_OK(
      OptIntInRange(value, "bits_per_segment", what, &v, 0, 32));
  sax.bits_per_segment = static_cast<int>(v);
  return sax;
}

void SaxToJson(const series::SaxConfig& sax, JsonWriter* w) {
  w->BeginObject();
  w->Field("series_length", static_cast<int64_t>(sax.series_length));
  w->Field("num_segments", static_cast<int64_t>(sax.num_segments));
  w->Field("bits_per_segment", static_cast<int64_t>(sax.bits_per_segment));
  w->EndObject();
}

}  // namespace

// ----------------------------------------------------- ApiError members

ApiError ApiError::FromStatus(const Status& status) {
  ApiError error;
  error.code = StatusCodeToApiCode(status.code());
  error.message = status.message();
  error.http_status = StatusCodeToHttpStatus(status.code());
  return error;
}

void ApiError::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("error");
  w->BeginObject();
  w->Field("api_version", static_cast<int64_t>(kApiVersion));
  w->Field("code", code);
  w->Field("message", message);
  w->EndObject();
  w->EndObject();
}

std::string ApiError::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<ApiError> ApiError::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "error";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  const JsonValue* inner = value.Find("error");
  if (inner == nullptr) {
    return Status::InvalidArgument("error: missing 'error' wrapper");
  }
  COCONUT_RETURN_NOT_OK(ExpectObject(*inner, kWhat));
  COCONUT_RETURN_NOT_OK(
      RejectUnknown(*inner, kWhat, {"api_version", "code", "message"}));
  ApiError error;
  COCONUT_ASSIGN_OR_RETURN(const uint64_t version,
                           ReqUint(*inner, "api_version", kWhat));
  if (version != static_cast<uint64_t>(kApiVersion)) {
    return Status::InvalidArgument("error: unsupported api_version " +
                                   std::to_string(version));
  }
  COCONUT_ASSIGN_OR_RETURN(error.code, ReqString(*inner, "code", kWhat));
  COCONUT_ASSIGN_OR_RETURN(error.message, ReqString(*inner, "message", kWhat));
  error.http_status = ApiCodeToHttpStatus(error.code);
  return error;
}

// ----------------------------------------------------- shared fragments

Result<VariantSpec> VariantSpecFromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "spec";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"family", "materialized", "mode", "sax", "fill_factor",
       "growth_factor", "buffer_entries", "memory_budget_bytes",
       "construction_threads", "ads_leaf_capacity", "btp_merge_k",
       "num_shards", "shard_build_threads", "shard_query_threads",
       "timestamp_policy", "async_ingest", "max_inflight_seals",
       "backpressure_policy", "durability"}));
  VariantSpec spec;
  std::string s;
  COCONUT_RETURN_NOT_OK(OptString(value, "family", kWhat, &s));
  if (!s.empty()) {
    COCONUT_ASSIGN_OR_RETURN(spec.family, FamilyFromWire(s, kWhat));
  }
  COCONUT_RETURN_NOT_OK(
      OptBool(value, "materialized", kWhat, &spec.materialized));
  s.clear();
  COCONUT_RETURN_NOT_OK(OptString(value, "mode", kWhat, &s));
  if (!s.empty()) {
    COCONUT_ASSIGN_OR_RETURN(spec.mode, ModeFromWire(s, kWhat));
  }
  if (const JsonValue* sax = value.Find("sax"); sax != nullptr) {
    COCONUT_ASSIGN_OR_RETURN(spec.sax, SaxFromJson(*sax, "spec.sax"));
  }
  COCONUT_RETURN_NOT_OK(
      OptDouble(value, "fill_factor", kWhat, &spec.fill_factor));
  int64_t i = spec.growth_factor;
  COCONUT_RETURN_NOT_OK(
      OptIntInRange(value, "growth_factor", kWhat, &i, 0, kMaxWireSmallInt));
  spec.growth_factor = static_cast<int>(i);
  uint64_t u = spec.buffer_entries;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "buffer_entries", kWhat, &u,
                                       kMaxWireBufferEntries));
  spec.buffer_entries = static_cast<size_t>(u);
  u = spec.memory_budget_bytes;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "memory_budget_bytes", kWhat,
                                       &u, kMaxWireMemoryBudgetBytes));
  spec.memory_budget_bytes = static_cast<size_t>(u);
  u = spec.construction_threads;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "construction_threads", kWhat,
                                       &u, kMaxWireThreads));
  spec.construction_threads = static_cast<size_t>(u);
  u = spec.ads_leaf_capacity;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "ads_leaf_capacity", kWhat, &u,
                                       kMaxWireLeafCapacity));
  spec.ads_leaf_capacity = static_cast<size_t>(u);
  i = spec.btp_merge_k;
  COCONUT_RETURN_NOT_OK(
      OptIntInRange(value, "btp_merge_k", kWhat, &i, 0, kMaxWireSmallInt));
  spec.btp_merge_k = static_cast<int>(i);
  u = spec.num_shards;
  COCONUT_RETURN_NOT_OK(
      OptUintInRange(value, "num_shards", kWhat, &u, kMaxWireShards));
  spec.num_shards = static_cast<size_t>(u);
  u = spec.shard_build_threads;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "shard_build_threads", kWhat,
                                       &u, kMaxWireThreads));
  spec.shard_build_threads = static_cast<size_t>(u);
  u = spec.shard_query_threads;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "shard_query_threads", kWhat,
                                       &u, kMaxWireThreads));
  spec.shard_query_threads = static_cast<size_t>(u);
  s.clear();
  COCONUT_RETURN_NOT_OK(OptString(value, "timestamp_policy", kWhat, &s));
  if (!s.empty()) {
    COCONUT_ASSIGN_OR_RETURN(spec.timestamp_policy, PolicyFromWire(s, kWhat));
  }
  COCONUT_RETURN_NOT_OK(
      OptBool(value, "async_ingest", kWhat, &spec.async_ingest));
  u = spec.max_inflight_seals;
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "max_inflight_seals", kWhat,
                                       &u, kMaxWireInflightSeals));
  spec.max_inflight_seals = static_cast<size_t>(u);
  s.clear();
  COCONUT_RETURN_NOT_OK(OptString(value, "backpressure_policy", kWhat, &s));
  if (!s.empty()) {
    COCONUT_ASSIGN_OR_RETURN(spec.backpressure_policy,
                             BackpressureFromWire(s, kWhat));
  }
  s.clear();
  COCONUT_RETURN_NOT_OK(OptString(value, "durability", kWhat, &s));
  if (!s.empty()) {
    if (s == "on") {
      spec.durable = true;
    } else if (s == "off") {
      spec.durable = false;
    } else {
      return Status::InvalidArgument(std::string(kWhat) +
                                     ": unknown durability '" + s +
                                     "' (want on|off)");
    }
  }
  return spec;
}

void VariantSpecToJson(const VariantSpec& spec, JsonWriter* w) {
  w->BeginObject();
  w->Field("family", std::string(FamilyToWire(spec.family)));
  w->Field("materialized", spec.materialized);
  w->Field("mode", std::string(ModeToWire(spec.mode)));
  w->Key("sax");
  SaxToJson(spec.sax, w);
  w->Field("fill_factor", spec.fill_factor);
  w->Field("growth_factor", static_cast<int64_t>(spec.growth_factor));
  w->Field("buffer_entries", static_cast<uint64_t>(spec.buffer_entries));
  w->Field("memory_budget_bytes",
           static_cast<uint64_t>(spec.memory_budget_bytes));
  w->Field("construction_threads",
           static_cast<uint64_t>(spec.construction_threads));
  w->Field("ads_leaf_capacity",
           static_cast<uint64_t>(spec.ads_leaf_capacity));
  w->Field("btp_merge_k", static_cast<int64_t>(spec.btp_merge_k));
  w->Field("num_shards", static_cast<uint64_t>(spec.num_shards));
  w->Field("shard_build_threads",
           static_cast<uint64_t>(spec.shard_build_threads));
  w->Field("shard_query_threads",
           static_cast<uint64_t>(spec.shard_query_threads));
  w->Field("timestamp_policy",
           std::string(PolicyToWire(spec.timestamp_policy)));
  w->Field("async_ingest", spec.async_ingest);
  w->Field("max_inflight_seals",
           static_cast<uint64_t>(spec.max_inflight_seals));
  w->Field("backpressure_policy",
           std::string(BackpressureToWire(spec.backpressure_policy)));
  w->Field("durability", std::string(spec.durable ? "on" : "off"));
  w->EndObject();
}

void IoStatsToJson(const storage::IoStats& io, JsonWriter* w) {
  w->BeginObject();
  w->Field("sequential_reads", io.sequential_reads);
  w->Field("random_reads", io.random_reads);
  w->Field("sequential_writes", io.sequential_writes);
  w->Field("random_writes", io.random_writes);
  w->Field("bytes_read", io.bytes_read);
  w->Field("bytes_written", io.bytes_written);
  w->EndObject();
}

Result<storage::IoStats> IoStatsFromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "io";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"sequential_reads", "random_reads", "sequential_writes",
       "random_writes", "bytes_read", "bytes_written"}));
  storage::IoStats io;
  COCONUT_ASSIGN_OR_RETURN(io.sequential_reads,
                           ReqUint(value, "sequential_reads", kWhat));
  COCONUT_ASSIGN_OR_RETURN(io.random_reads,
                           ReqUint(value, "random_reads", kWhat));
  COCONUT_ASSIGN_OR_RETURN(io.sequential_writes,
                           ReqUint(value, "sequential_writes", kWhat));
  COCONUT_ASSIGN_OR_RETURN(io.random_writes,
                           ReqUint(value, "random_writes", kWhat));
  COCONUT_ASSIGN_OR_RETURN(io.bytes_read, ReqUint(value, "bytes_read", kWhat));
  COCONUT_ASSIGN_OR_RETURN(io.bytes_written,
                           ReqUint(value, "bytes_written", kWhat));
  return io;
}

void QueryCountersToJson(const core::QueryCounters& counters, JsonWriter* w) {
  w->BeginObject();
  w->Field("leaves_visited", counters.leaves_visited);
  w->Field("leaves_pruned", counters.leaves_pruned);
  w->Field("entries_examined", counters.entries_examined);
  w->Field("raw_fetches", counters.raw_fetches);
  w->Field("partitions_visited", counters.partitions_visited);
  w->Field("partitions_skipped", counters.partitions_skipped);
  w->EndObject();
}

Result<core::QueryCounters> QueryCountersFromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "counters";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"leaves_visited", "leaves_pruned", "entries_examined", "raw_fetches",
       "partitions_visited", "partitions_skipped"}));
  core::QueryCounters counters;
  COCONUT_ASSIGN_OR_RETURN(counters.leaves_visited,
                           ReqUint(value, "leaves_visited", kWhat));
  COCONUT_ASSIGN_OR_RETURN(counters.leaves_pruned,
                           ReqUint(value, "leaves_pruned", kWhat));
  COCONUT_ASSIGN_OR_RETURN(counters.entries_examined,
                           ReqUint(value, "entries_examined", kWhat));
  COCONUT_ASSIGN_OR_RETURN(counters.raw_fetches,
                           ReqUint(value, "raw_fetches", kWhat));
  COCONUT_ASSIGN_OR_RETURN(counters.partitions_visited,
                           ReqUint(value, "partitions_visited", kWhat));
  COCONUT_ASSIGN_OR_RETURN(counters.partitions_skipped,
                           ReqUint(value, "partitions_skipped", kWhat));
  return counters;
}

Result<HeatMap> HeatMapFromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "heatmap";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"time_bins", "location_bins", "total_events", "distinct_pages",
       "distinct_files", "max_count", "cells"}));
  HeatMap map;
  uint64_t u;
  COCONUT_ASSIGN_OR_RETURN(u, ReqUint(value, "time_bins", kWhat));
  map.time_bins = static_cast<size_t>(u);
  COCONUT_ASSIGN_OR_RETURN(u, ReqUint(value, "location_bins", kWhat));
  map.location_bins = static_cast<size_t>(u);
  // Both bin counts drive the counts reserve below before any cell row
  // constrains them.
  if (map.time_bins > kMaxHeatMapBinsPerAxis ||
      map.location_bins > kMaxHeatMapBinsPerAxis) {
    return Status::InvalidArgument(
        "heatmap: bin counts exceed the maximum of " +
        std::to_string(kMaxHeatMapBinsPerAxis) + " per axis");
  }
  COCONUT_ASSIGN_OR_RETURN(map.total_events,
                           ReqUint(value, "total_events", kWhat));
  COCONUT_ASSIGN_OR_RETURN(map.distinct_pages,
                           ReqUint(value, "distinct_pages", kWhat));
  COCONUT_ASSIGN_OR_RETURN(map.distinct_files,
                           ReqUint(value, "distinct_files", kWhat));
  COCONUT_ASSIGN_OR_RETURN(u, ReqUint(value, "max_count", kWhat));
  if (u > std::numeric_limits<uint32_t>::max()) {
    return FieldError(kWhat, "max_count", "does not fit in 32 bits");
  }
  map.max_count = static_cast<uint32_t>(u);
  const JsonValue* cells = value.Find("cells");
  if (cells == nullptr || !cells->is_array() ||
      cells->array_size() != map.time_bins) {
    return Status::InvalidArgument(
        "heatmap: 'cells' must be an array of time_bins rows");
  }
  if (cells->is_packed_array()) {
    // Numbers where rows were expected.
    return Status::InvalidArgument(
        "heatmap: each cells row must have location_bins entries");
  }
  map.counts.reserve(map.time_bins * map.location_bins);
  for (const JsonValue& row : cells->array()) {
    if (!row.is_array() || row.array_size() != map.location_bins) {
      return Status::InvalidArgument(
          "heatmap: each cells row must have location_bins entries");
    }
    for (size_t j = 0; j < row.array_size(); ++j) {
      Result<uint64_t> cell = row.element_is_number(j)
                                  ? row.ElementAsUint64(j)
                                  : Result<uint64_t>(Status::InvalidArgument(
                                        "not a number"));
      if (!cell.ok() ||
          cell.value() > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument(
            "heatmap: cells must be 32-bit counts");
      }
      map.counts.push_back(static_cast<uint32_t>(cell.value()));
    }
  }
  return map;
}

// ------------------------------------------------------------- requests

Result<RegisterDatasetRequest> RegisterDatasetRequest::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "register_dataset";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat, {"name", "series", "series_length", "timestamps"}));
  RegisterDatasetRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.name, ReqString(value, "name", kWhat));
  COCONUT_ASSIGN_OR_RETURN(request.data, ParseSeriesMatrix(value, kWhat));
  if (const JsonValue* ts = value.Find("timestamps"); ts != nullptr) {
    COCONUT_ASSIGN_OR_RETURN(std::vector<int64_t> parsed,
                             ParseTimestamps(*ts, kWhat));
    request.timestamps = std::move(parsed);
  }
  return request;
}

void RegisterDatasetRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("name", name);
  WriteSeriesMatrix(data, w);
  if (timestamps.has_value()) WriteTimestamps(*timestamps, w);
  w->EndObject();
}

std::string RegisterDatasetRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<RegisterDatasetResponse> RegisterDatasetResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "register_dataset response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(
      RejectUnknown(value, kWhat, {"dataset", "series", "series_length"}));
  RegisterDatasetResponse response;
  COCONUT_ASSIGN_OR_RETURN(response.dataset,
                           ReqString(value, "dataset", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.series, ReqUint(value, "series", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.series_length,
                           ReqUint(value, "series_length", kWhat));
  return response;
}

void RegisterDatasetResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("dataset", dataset);
  w->Field("series", series);
  w->Field("series_length", series_length);
  w->EndObject();
}

std::string RegisterDatasetResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<BuildIndexRequest> BuildIndexRequest::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "build_index";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(
      RejectUnknown(value, kWhat, {"index", "dataset", "spec"}));
  BuildIndexRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.index, ReqString(value, "index", kWhat));
  COCONUT_ASSIGN_OR_RETURN(request.dataset,
                           ReqString(value, "dataset", kWhat));
  const JsonValue* spec = value.Find("spec");
  if (spec == nullptr) return FieldError(kWhat, "spec", "is required");
  COCONUT_ASSIGN_OR_RETURN(request.spec, VariantSpecFromJson(*spec));
  return request;
}

void BuildIndexRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("index", index);
  w->Field("dataset", dataset);
  w->Key("spec");
  VariantSpecToJson(spec, w);
  w->EndObject();
}

std::string BuildIndexRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<BuildIndexReport> BuildIndexReport::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "build report";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"index", "variant", "dataset", "shards", "entries", "build_seconds",
       "index_bytes", "total_bytes", "io"}));
  BuildIndexReport report;
  COCONUT_ASSIGN_OR_RETURN(report.index, ReqString(value, "index", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.variant, ReqString(value, "variant", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.dataset, ReqString(value, "dataset", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.shards, ReqUint(value, "shards", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.entries, ReqUint(value, "entries", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.build_seconds,
                           ReqDouble(value, "build_seconds", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.index_bytes,
                           ReqUint(value, "index_bytes", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.total_bytes,
                           ReqUint(value, "total_bytes", kWhat));
  const JsonValue* io = value.Find("io");
  if (io == nullptr) return FieldError(kWhat, "io", "is required");
  COCONUT_ASSIGN_OR_RETURN(report.io, IoStatsFromJson(*io));
  return report;
}

void BuildIndexReport::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("index", index);
  w->Field("variant", variant);
  w->Field("dataset", dataset);
  w->Field("shards", shards);
  w->Field("entries", entries);
  w->Field("build_seconds", build_seconds);
  w->Field("index_bytes", index_bytes);
  w->Field("total_bytes", total_bytes);
  w->Key("io");
  IoStatsToJson(io, w);
  w->EndObject();
}

std::string BuildIndexReport::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<CreateStreamRequest> CreateStreamRequest::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "create_stream";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"stream", "spec"}));
  CreateStreamRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.stream, ReqString(value, "stream", kWhat));
  const JsonValue* spec = value.Find("spec");
  if (spec == nullptr) return FieldError(kWhat, "spec", "is required");
  COCONUT_ASSIGN_OR_RETURN(request.spec, VariantSpecFromJson(*spec));
  return request;
}

void CreateStreamRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("stream", stream);
  w->Key("spec");
  VariantSpecToJson(spec, w);
  w->EndObject();
}

std::string CreateStreamRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<CreateStreamResponse> CreateStreamResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "create_stream response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"stream", "variant"}));
  CreateStreamResponse response;
  COCONUT_ASSIGN_OR_RETURN(response.stream, ReqString(value, "stream", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.variant,
                           ReqString(value, "variant", kWhat));
  return response;
}

void CreateStreamResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("stream", stream);
  w->Field("variant", variant);
  w->EndObject();
}

std::string CreateStreamResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<IngestBatchRequest> IngestBatchRequest::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "ingest_batch";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat, {"stream", "series", "series_length", "timestamps"}));
  IngestBatchRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.stream, ReqString(value, "stream", kWhat));
  COCONUT_ASSIGN_OR_RETURN(request.batch, ParseSeriesMatrix(value, kWhat));
  const JsonValue* ts = value.Find("timestamps");
  if (ts == nullptr) return FieldError(kWhat, "timestamps", "is required");
  COCONUT_ASSIGN_OR_RETURN(request.timestamps, ParseTimestamps(*ts, kWhat));
  return request;
}

void IngestBatchRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("stream", stream);
  WriteSeriesMatrix(batch, w);
  WriteTimestamps(timestamps, w);
  w->EndObject();
}

std::string IngestBatchRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<IngestBatchReport> IngestBatchReport::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "ingest report";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"stream", "ingested", "total_entries", "partitions", "buffered",
       "pending_tasks", "seals_completed", "merges_completed",
       "seals_inflight", "ingest_stalls", "ingest_rejects", "stall_ms_p50",
       "stall_ms_p99", "seconds", "io"}));
  IngestBatchReport report;
  COCONUT_ASSIGN_OR_RETURN(report.stream, ReqString(value, "stream", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.ingested,
                           ReqUint(value, "ingested", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.total_entries,
                           ReqUint(value, "total_entries", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.partitions,
                           ReqUint(value, "partitions", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.buffered,
                           ReqUint(value, "buffered", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.pending_tasks,
                           ReqUint(value, "pending_tasks", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.seals_completed,
                           ReqUint(value, "seals_completed", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.merges_completed,
                           ReqUint(value, "merges_completed", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.seals_inflight,
                           ReqUint(value, "seals_inflight", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.ingest_stalls,
                           ReqUint(value, "ingest_stalls", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.ingest_rejects,
                           ReqUint(value, "ingest_rejects", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.stall_ms_p50,
                           ReqDouble(value, "stall_ms_p50", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.stall_ms_p99,
                           ReqDouble(value, "stall_ms_p99", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.seconds,
                           ReqDouble(value, "seconds", kWhat));
  const JsonValue* io = value.Find("io");
  if (io == nullptr) return FieldError(kWhat, "io", "is required");
  COCONUT_ASSIGN_OR_RETURN(report.io, IoStatsFromJson(*io));
  return report;
}

void IngestBatchReport::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("stream", stream);
  w->Field("ingested", ingested);
  w->Field("total_entries", total_entries);
  w->Field("partitions", partitions);
  w->Field("buffered", buffered);
  w->Field("pending_tasks", pending_tasks);
  w->Field("seals_completed", seals_completed);
  w->Field("merges_completed", merges_completed);
  w->Field("seals_inflight", seals_inflight);
  w->Field("ingest_stalls", ingest_stalls);
  w->Field("ingest_rejects", ingest_rejects);
  w->Field("stall_ms_p50", stall_ms_p50);
  w->Field("stall_ms_p99", stall_ms_p99);
  w->Field("seconds", seconds);
  w->Key("io");
  IoStatsToJson(io, w);
  w->EndObject();
}

std::string IngestBatchReport::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<DrainStreamRequest> DrainStreamRequest::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "drain_stream";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"stream"}));
  DrainStreamRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.stream, ReqString(value, "stream", kWhat));
  return request;
}

void DrainStreamRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("stream", stream);
  w->EndObject();
}

std::string DrainStreamRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<DrainStreamReport> DrainStreamReport::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "drain report";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"stream", "drained", "drain_seconds", "total_entries", "partitions",
       "buffered", "pending_tasks", "seals_completed", "merges_completed",
       "seals_inflight", "ingest_stalls", "ingest_rejects", "stall_ms_p50",
       "stall_ms_p99", "index_bytes", "total_bytes"}));
  DrainStreamReport report;
  COCONUT_ASSIGN_OR_RETURN(report.stream, ReqString(value, "stream", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.drained, ReqBool(value, "drained", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.drain_seconds,
                           ReqDouble(value, "drain_seconds", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.total_entries,
                           ReqUint(value, "total_entries", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.partitions,
                           ReqUint(value, "partitions", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.buffered,
                           ReqUint(value, "buffered", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.pending_tasks,
                           ReqUint(value, "pending_tasks", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.seals_completed,
                           ReqUint(value, "seals_completed", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.merges_completed,
                           ReqUint(value, "merges_completed", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.seals_inflight,
                           ReqUint(value, "seals_inflight", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.ingest_stalls,
                           ReqUint(value, "ingest_stalls", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.ingest_rejects,
                           ReqUint(value, "ingest_rejects", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.stall_ms_p50,
                           ReqDouble(value, "stall_ms_p50", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.stall_ms_p99,
                           ReqDouble(value, "stall_ms_p99", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.index_bytes,
                           ReqUint(value, "index_bytes", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.total_bytes,
                           ReqUint(value, "total_bytes", kWhat));
  return report;
}

void DrainStreamReport::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("stream", stream);
  w->Field("drained", drained);
  w->Field("drain_seconds", drain_seconds);
  w->Field("total_entries", total_entries);
  w->Field("partitions", partitions);
  w->Field("buffered", buffered);
  w->Field("pending_tasks", pending_tasks);
  w->Field("seals_completed", seals_completed);
  w->Field("merges_completed", merges_completed);
  w->Field("seals_inflight", seals_inflight);
  w->Field("ingest_stalls", ingest_stalls);
  w->Field("ingest_rejects", ingest_rejects);
  w->Field("stall_ms_p50", stall_ms_p50);
  w->Field("stall_ms_p99", stall_ms_p99);
  w->Field("index_bytes", index_bytes);
  w->Field("total_bytes", total_bytes);
  w->EndObject();
}

std::string DrainStreamReport::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<QueryRequest> QueryRequest::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "query";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"index", "query", "exact", "window", "approx_candidates",
       "capture_heatmap", "heatmap_time_bins", "heatmap_location_bins"}));
  QueryRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.index, ReqString(value, "index", kWhat));
  const JsonValue* q = value.Find("query");
  if (q == nullptr) return FieldError(kWhat, "query", "is required");
  if (!q->is_array()) {
    return FieldError(kWhat, "query", "must be an array of numbers");
  }
  request.query.reserve(q->array_size());
  if (q->is_packed_array()) {
    for (const double v : q->packed_numbers()) {
      request.query.push_back(static_cast<float>(v));
    }
  } else {
    for (const JsonValue& v : q->array()) {
      if (!v.is_number()) {
        return FieldError(kWhat, "query", "must contain only numbers");
      }
      request.query.push_back(static_cast<float>(v.AsDouble()));
    }
  }
  COCONUT_RETURN_NOT_OK(OptBool(value, "exact", kWhat, &request.exact));
  if (const JsonValue* win = value.Find("window"); win != nullptr) {
    COCONUT_RETURN_NOT_OK(ExpectObject(*win, "query.window"));
    COCONUT_RETURN_NOT_OK(
        RejectUnknown(*win, "query.window", {"begin", "end"}));
    core::TimeWindow window;
    COCONUT_RETURN_NOT_OK(
        OptInt(*win, "begin", "query.window", &window.begin));
    COCONUT_RETURN_NOT_OK(OptInt(*win, "end", "query.window", &window.end));
    // An inverted window used to sail through and silently scan nothing;
    // reject it at the boundary (Service::Query re-checks for the typed
    // in-process path).
    if (window.begin > window.end) {
      return Status::InvalidArgument(
          "query: field 'window' begin must be <= end (got begin=" +
          std::to_string(window.begin) +
          ", end=" + std::to_string(window.end) + ")");
    }
    request.window = window;
  }
  int64_t candidates = request.approx_candidates;
  // Bounded to the storage type so oversized wire values are rejected
  // instead of silently truncated (2^32+1 used to behave as 1).
  COCONUT_RETURN_NOT_OK(OptIntInRange(
      value, "approx_candidates", kWhat, &candidates,
      std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
  request.approx_candidates = static_cast<int>(candidates);
  COCONUT_RETURN_NOT_OK(
      OptBool(value, "capture_heatmap", kWhat, &request.capture_heatmap));
  uint64_t bins = request.heatmap_time_bins;
  COCONUT_RETURN_NOT_OK(OptUint(value, "heatmap_time_bins", kWhat, &bins));
  request.heatmap_time_bins = static_cast<size_t>(bins);
  bins = request.heatmap_location_bins;
  COCONUT_RETURN_NOT_OK(
      OptUint(value, "heatmap_location_bins", kWhat, &bins));
  request.heatmap_location_bins = static_cast<size_t>(bins);
  return request;
}

void QueryRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("index", index);
  w->Key("query");
  w->BeginArray();
  for (const float v : query) w->Double(v);
  w->EndArray();
  w->Field("exact", exact);
  if (window.has_value()) {
    w->Key("window");
    w->BeginObject();
    w->Field("begin", window->begin);
    w->Field("end", window->end);
    w->EndObject();
  }
  w->Field("approx_candidates", static_cast<int64_t>(approx_candidates));
  w->Field("capture_heatmap", capture_heatmap);
  w->Field("heatmap_time_bins", static_cast<uint64_t>(heatmap_time_bins));
  w->Field("heatmap_location_bins",
           static_cast<uint64_t>(heatmap_location_bins));
  w->EndObject();
}

std::string QueryRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<QueryReport> QueryReport::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "query report";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"index", "exact", "found", "series_id", "distance", "timestamp",
       "seconds", "io", "counters", "access_locality", "heatmap",
       "batch_size", "degraded"}));
  QueryReport report;
  COCONUT_ASSIGN_OR_RETURN(report.index, ReqString(value, "index", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.exact, ReqBool(value, "exact", kWhat));
  COCONUT_ASSIGN_OR_RETURN(report.found, ReqBool(value, "found", kWhat));
  if (report.found) {
    COCONUT_ASSIGN_OR_RETURN(report.series_id,
                             ReqUint(value, "series_id", kWhat));
    COCONUT_ASSIGN_OR_RETURN(report.distance,
                             ReqDouble(value, "distance", kWhat));
    int64_t ts = 0;
    COCONUT_RETURN_NOT_OK(OptInt(value, "timestamp", kWhat, &ts));
    report.timestamp = ts;
  }
  COCONUT_ASSIGN_OR_RETURN(report.seconds, ReqDouble(value, "seconds", kWhat));
  const JsonValue* io = value.Find("io");
  if (io == nullptr) return FieldError(kWhat, "io", "is required");
  COCONUT_ASSIGN_OR_RETURN(report.io, IoStatsFromJson(*io));
  const JsonValue* counters = value.Find("counters");
  if (counters == nullptr) return FieldError(kWhat, "counters", "is required");
  COCONUT_ASSIGN_OR_RETURN(report.counters, QueryCountersFromJson(*counters));
  if (const JsonValue* map = value.Find("heatmap"); map != nullptr) {
    report.has_heatmap = true;
    COCONUT_ASSIGN_OR_RETURN(report.access_locality,
                             ReqDouble(value, "access_locality", kWhat));
    COCONUT_ASSIGN_OR_RETURN(report.heatmap, HeatMapFromJson(*map));
  }
  COCONUT_RETURN_NOT_OK(OptUint(value, "batch_size", kWhat,
                                &report.batch_size));
  COCONUT_RETURN_NOT_OK(OptBool(value, "degraded", kWhat, &report.degraded));
  return report;
}

void QueryReport::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("index", index);
  w->Field("exact", exact);
  w->Field("found", found);
  if (found) {
    w->Field("series_id", series_id);
    w->Field("distance", distance);
    w->Field("timestamp", timestamp);
  }
  w->Field("seconds", seconds);
  w->Key("io");
  IoStatsToJson(io, w);
  w->Key("counters");
  QueryCountersToJson(counters, w);
  if (has_heatmap) {
    w->Field("access_locality", access_locality);
    w->Key("heatmap");
    HeatMapToJson(heatmap, w);
  }
  // Only batched-scan reports carry the marker; single-query JSON stays
  // byte-identical to the pre-batching shape.
  if (batch_size > 1) w->Field("batch_size", batch_size);
  // Only degraded coordinator answers carry the marker (same wire-additive
  // discipline as batch_size).
  if (degraded) w->Field("degraded", degraded);
  w->EndObject();
}

std::string QueryReport::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<QueryBatchRequest> QueryBatchRequest::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "query_batch";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"queries", "threads"}));
  QueryBatchRequest request;
  const JsonValue* queries = value.Find("queries");
  if (queries == nullptr) return FieldError(kWhat, "queries", "is required");
  if (!queries->is_array() || queries->is_packed_array()) {
    return FieldError(kWhat, "queries", "must be an array of query objects");
  }
  request.queries.reserve(queries->array().size());
  for (const JsonValue& q : queries->array()) {
    COCONUT_ASSIGN_OR_RETURN(QueryRequest parsed, QueryRequest::FromJson(q));
    request.queries.push_back(std::move(parsed));
  }
  COCONUT_RETURN_NOT_OK(OptUintInRange(value, "threads", kWhat,
                                       &request.threads, kMaxWireThreads));
  return request;
}

void QueryBatchRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("queries");
  w->BeginArray();
  for (const QueryRequest& q : queries) q.ToJson(w);
  w->EndArray();
  w->Field("threads", threads);
  w->EndObject();
}

std::string QueryBatchRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<QueryBatchResponse> QueryBatchResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "query_batch response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"results"}));
  const JsonValue* results = value.Find("results");
  if (results == nullptr) return FieldError(kWhat, "results", "is required");
  if (!results->is_array() || results->is_packed_array()) {
    return FieldError(kWhat, "results", "must be an array of result objects");
  }
  QueryBatchResponse response;
  response.results.reserve(results->array().size());
  for (const JsonValue& entry : results->array()) {
    Entry parsed;
    if (entry.is_object() && entry.Find("error") != nullptr) {
      parsed.ok = false;
      COCONUT_ASSIGN_OR_RETURN(parsed.error, ApiError::FromJson(entry));
    } else {
      parsed.ok = true;
      COCONUT_ASSIGN_OR_RETURN(parsed.report, QueryReport::FromJson(entry));
    }
    response.results.push_back(std::move(parsed));
  }
  return response;
}

void QueryBatchResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("results");
  w->BeginArray();
  for (const Entry& entry : results) {
    if (entry.ok) {
      entry.report.ToJson(w);
    } else {
      entry.error.ToJson(w);
    }
  }
  w->EndArray();
  w->EndObject();
}

std::string QueryBatchResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<RecommendRequest> RecommendRequest::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "recommend";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"streaming", "dataset_size", "sax", "expected_queries", "update_ratio",
       "memory_budget_bytes", "window_queries", "typical_window_fraction",
       "storage_constrained"}));
  RecommendRequest request;
  Scenario& s = request.scenario;
  COCONUT_RETURN_NOT_OK(OptBool(value, "streaming", kWhat, &s.streaming));
  COCONUT_RETURN_NOT_OK(
      OptUint(value, "dataset_size", kWhat, &s.dataset_size));
  if (const JsonValue* sax = value.Find("sax"); sax != nullptr) {
    COCONUT_ASSIGN_OR_RETURN(s.sax, SaxFromJson(*sax, "recommend.sax"));
  }
  COCONUT_RETURN_NOT_OK(
      OptUint(value, "expected_queries", kWhat, &s.expected_queries));
  COCONUT_RETURN_NOT_OK(
      OptDouble(value, "update_ratio", kWhat, &s.update_ratio));
  COCONUT_RETURN_NOT_OK(
      OptUint(value, "memory_budget_bytes", kWhat, &s.memory_budget_bytes));
  COCONUT_RETURN_NOT_OK(
      OptBool(value, "window_queries", kWhat, &s.window_queries));
  COCONUT_RETURN_NOT_OK(OptDouble(value, "typical_window_fraction", kWhat,
                                  &s.typical_window_fraction));
  COCONUT_RETURN_NOT_OK(
      OptBool(value, "storage_constrained", kWhat, &s.storage_constrained));
  return request;
}

void RecommendRequest::ToJson(JsonWriter* w) const {
  const Scenario& s = scenario;
  w->BeginObject();
  w->Field("streaming", s.streaming);
  w->Field("dataset_size", s.dataset_size);
  w->Key("sax");
  SaxToJson(s.sax, w);
  w->Field("expected_queries", s.expected_queries);
  w->Field("update_ratio", s.update_ratio);
  w->Field("memory_budget_bytes", s.memory_budget_bytes);
  w->Field("window_queries", s.window_queries);
  w->Field("typical_window_fraction", s.typical_window_fraction);
  w->Field("storage_constrained", s.storage_constrained);
  w->EndObject();
}

std::string RecommendRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<RecommendResponse> RecommendResponse::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "recommend response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(
      RejectUnknown(value, kWhat, {"variant", "spec", "rationale"}));
  RecommendResponse response;
  COCONUT_ASSIGN_OR_RETURN(response.variant,
                           ReqString(value, "variant", kWhat));
  const JsonValue* spec = value.Find("spec");
  if (spec == nullptr) return FieldError(kWhat, "spec", "is required");
  COCONUT_RETURN_NOT_OK(ExpectObject(*spec, "recommend.spec"));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      *spec, "recommend.spec",
      {"materialized", "fill_factor", "growth_factor", "buffer_entries"}));
  COCONUT_ASSIGN_OR_RETURN(
      response.materialized,
      ReqBool(*spec, "materialized", "recommend.spec"));
  COCONUT_ASSIGN_OR_RETURN(
      response.fill_factor,
      ReqDouble(*spec, "fill_factor", "recommend.spec"));
  COCONUT_RETURN_NOT_OK(
      OptInt(*spec, "growth_factor", "recommend.spec",
             &response.growth_factor));
  COCONUT_RETURN_NOT_OK(
      OptUint(*spec, "buffer_entries", "recommend.spec",
              &response.buffer_entries));
  const JsonValue* rationale = value.Find("rationale");
  if (rationale == nullptr || !rationale->is_array() ||
      rationale->is_packed_array()) {
    return FieldError(kWhat, "rationale", "must be an array of strings");
  }
  for (const JsonValue& reason : rationale->array()) {
    if (!reason.is_string()) {
      return FieldError(kWhat, "rationale", "must contain only strings");
    }
    response.rationale.push_back(reason.string_value());
  }
  return response;
}

void RecommendResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("variant", variant);
  w->Key("spec");
  w->BeginObject();
  w->Field("materialized", materialized);
  w->Field("fill_factor", fill_factor);
  w->Field("growth_factor", growth_factor);
  w->Field("buffer_entries", buffer_entries);
  w->EndObject();
  w->Key("rationale");
  w->BeginArray();
  for (const std::string& reason : rationale) w->String(reason);
  w->EndArray();
  w->EndObject();
}

std::string RecommendResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<ListIndexesResponse> ListIndexesResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "list_indexes response";
  if (!value.is_array() || value.is_packed_array()) {
    return Status::InvalidArgument(std::string(kWhat) +
                                   ": expected a JSON array of objects");
  }
  ListIndexesResponse response;
  response.indexes.reserve(value.array().size());
  for (const JsonValue& entry : value.array()) {
    COCONUT_RETURN_NOT_OK(ExpectObject(entry, kWhat));
    COCONUT_RETURN_NOT_OK(RejectUnknown(
        entry, kWhat,
        {"name", "variant", "streaming", "shards", "entries",
         "total_bytes"}));
    IndexInfo info;
    COCONUT_ASSIGN_OR_RETURN(info.name, ReqString(entry, "name", kWhat));
    COCONUT_ASSIGN_OR_RETURN(info.variant,
                             ReqString(entry, "variant", kWhat));
    COCONUT_ASSIGN_OR_RETURN(info.streaming,
                             ReqBool(entry, "streaming", kWhat));
    COCONUT_ASSIGN_OR_RETURN(info.shards, ReqUint(entry, "shards", kWhat));
    COCONUT_ASSIGN_OR_RETURN(info.entries, ReqUint(entry, "entries", kWhat));
    COCONUT_ASSIGN_OR_RETURN(info.total_bytes,
                             ReqUint(entry, "total_bytes", kWhat));
    response.indexes.push_back(std::move(info));
  }
  return response;
}

void ListIndexesResponse::ToJson(JsonWriter* w) const {
  w->BeginArray();
  for (const IndexInfo& info : indexes) {
    w->BeginObject();
    w->Field("name", info.name);
    w->Field("variant", info.variant);
    w->Field("streaming", info.streaming);
    w->Field("shards", info.shards);
    w->Field("entries", info.entries);
    w->Field("total_bytes", info.total_bytes);
    w->EndObject();
  }
  w->EndArray();
}

std::string ListIndexesResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<DropIndexRequest> DropIndexRequest::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "drop_index";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"index"}));
  DropIndexRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.index, ReqString(value, "index", kWhat));
  return request;
}

void DropIndexRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("index", index);
  w->EndObject();
}

std::string DropIndexRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<DropIndexResponse> DropIndexResponse::FromJson(const JsonValue& value) {
  static constexpr const char* kWhat = "drop_index response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      value, kWhat,
      {"index", "dropped", "streaming", "entries", "reclaimed_bytes"}));
  DropIndexResponse response;
  COCONUT_ASSIGN_OR_RETURN(response.index, ReqString(value, "index", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.dropped,
                           ReqBool(value, "dropped", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.streaming,
                           ReqBool(value, "streaming", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.entries, ReqUint(value, "entries", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.reclaimed_bytes,
                           ReqUint(value, "reclaimed_bytes", kWhat));
  return response;
}

void DropIndexResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("index", index);
  w->Field("dropped", dropped);
  w->Field("streaming", streaming);
  w->Field("entries", entries);
  w->Field("reclaimed_bytes", reclaimed_bytes);
  w->EndObject();
}

std::string DropIndexResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<DropDatasetRequest> DropDatasetRequest::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "drop_dataset";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(RejectUnknown(value, kWhat, {"dataset"}));
  DropDatasetRequest request;
  COCONUT_ASSIGN_OR_RETURN(request.dataset,
                           ReqString(value, "dataset", kWhat));
  return request;
}

void DropDatasetRequest::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("dataset", dataset);
  w->EndObject();
}

std::string DropDatasetRequest::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<DropDatasetResponse> DropDatasetResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "drop_dataset response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(
      RejectUnknown(value, kWhat, {"dataset", "dropped", "series"}));
  DropDatasetResponse response;
  COCONUT_ASSIGN_OR_RETURN(response.dataset,
                           ReqString(value, "dataset", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.dropped,
                           ReqBool(value, "dropped", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.series, ReqUint(value, "series", kWhat));
  return response;
}

void DropDatasetResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("dataset", dataset);
  w->Field("dropped", dropped);
  w->Field("series", series);
  w->EndObject();
}

std::string DropDatasetResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

Result<ServerStatsResponse> ServerStatsResponse::FromJson(
    const JsonValue& value) {
  static constexpr const char* kWhat = "server_stats response";
  COCONUT_RETURN_NOT_OK(ExpectObject(value, kWhat));
  COCONUT_RETURN_NOT_OK(
      RejectUnknown(value, kWhat, {"cache", "quota", "shards"}));
  ServerStatsResponse response;
  const JsonValue* cache = value.Find("cache");
  if (cache == nullptr) {
    return FieldError(kWhat, "cache", "is required");
  }
  COCONUT_RETURN_NOT_OK(ExpectObject(*cache, "server_stats cache"));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      *cache, "server_stats cache",
      {"enabled", "entries", "bytes", "hits", "misses", "inserts",
       "evictions", "stale_drops", "invalidations", "negative_enabled",
       "negative_hits", "negative_inserts"}));
  COCONUT_ASSIGN_OR_RETURN(response.cache_enabled,
                           ReqBool(*cache, "enabled", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_entries,
                           ReqUint(*cache, "entries", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_bytes,
                           ReqUint(*cache, "bytes", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_hits,
                           ReqUint(*cache, "hits", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_misses,
                           ReqUint(*cache, "misses", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_inserts,
                           ReqUint(*cache, "inserts", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_evictions,
                           ReqUint(*cache, "evictions", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_stale_drops,
                           ReqUint(*cache, "stale_drops", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.cache_invalidations,
                           ReqUint(*cache, "invalidations", kWhat));
  COCONUT_RETURN_NOT_OK(OptBool(*cache, "negative_enabled", kWhat,
                                &response.cache_negative_enabled));
  COCONUT_RETURN_NOT_OK(OptUint(*cache, "negative_hits", kWhat,
                                &response.cache_negative_hits));
  COCONUT_RETURN_NOT_OK(OptUint(*cache, "negative_inserts", kWhat,
                                &response.cache_negative_inserts));
  const JsonValue* quota = value.Find("quota");
  if (quota == nullptr) {
    return FieldError(kWhat, "quota", "is required");
  }
  COCONUT_RETURN_NOT_OK(ExpectObject(*quota, "server_stats quota"));
  COCONUT_RETURN_NOT_OK(RejectUnknown(
      *quota, "server_stats quota",
      {"enabled", "admitted", "throttled", "unauthenticated"}));
  COCONUT_ASSIGN_OR_RETURN(response.quota_enabled,
                           ReqBool(*quota, "enabled", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.quota_admitted,
                           ReqUint(*quota, "admitted", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.quota_throttled,
                           ReqUint(*quota, "throttled", kWhat));
  COCONUT_ASSIGN_OR_RETURN(response.quota_unauthenticated,
                           ReqUint(*quota, "unauthenticated", kWhat));
  if (const JsonValue* shards = value.Find("shards"); shards != nullptr) {
    if (!shards->is_array() || shards->is_packed_array()) {
      return FieldError(kWhat, "shards", "must be an array of objects");
    }
    for (const JsonValue& entry : shards->array()) {
      static constexpr const char* kShardWhat = "server_stats shard";
      COCONUT_RETURN_NOT_OK(ExpectObject(entry, kShardWhat));
      COCONUT_RETURN_NOT_OK(RejectUnknown(
          entry, kShardWhat,
          {"endpoint", "healthy", "requests", "failures",
           "consecutive_failures"}));
      ShardHealth health;
      COCONUT_ASSIGN_OR_RETURN(health.endpoint,
                               ReqString(entry, "endpoint", kShardWhat));
      COCONUT_ASSIGN_OR_RETURN(health.healthy,
                               ReqBool(entry, "healthy", kShardWhat));
      COCONUT_ASSIGN_OR_RETURN(health.requests,
                               ReqUint(entry, "requests", kShardWhat));
      COCONUT_ASSIGN_OR_RETURN(health.failures,
                               ReqUint(entry, "failures", kShardWhat));
      COCONUT_ASSIGN_OR_RETURN(
          health.consecutive_failures,
          ReqUint(entry, "consecutive_failures", kShardWhat));
      response.shards.push_back(std::move(health));
    }
  }
  return response;
}

void ServerStatsResponse::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("cache");
  w->BeginObject();
  w->Field("enabled", cache_enabled);
  w->Field("entries", cache_entries);
  w->Field("bytes", cache_bytes);
  w->Field("hits", cache_hits);
  w->Field("misses", cache_misses);
  w->Field("inserts", cache_inserts);
  w->Field("evictions", cache_evictions);
  w->Field("stale_drops", cache_stale_drops);
  w->Field("invalidations", cache_invalidations);
  // Wire-additive: only servers with negative caching on emit the
  // negative_* fields, so legacy responses stay byte-identical.
  if (cache_negative_enabled) {
    w->Field("negative_enabled", cache_negative_enabled);
    w->Field("negative_hits", cache_negative_hits);
    w->Field("negative_inserts", cache_negative_inserts);
  }
  w->EndObject();
  w->Key("quota");
  w->BeginObject();
  w->Field("enabled", quota_enabled);
  w->Field("admitted", quota_admitted);
  w->Field("throttled", quota_throttled);
  w->Field("unauthenticated", quota_unauthenticated);
  w->EndObject();
  // Wire-additive: only a distributed coordinator has shards to report.
  if (!shards.empty()) {
    w->Key("shards");
    w->BeginArray();
    for (const ShardHealth& shard : shards) {
      w->BeginObject();
      w->Field("endpoint", shard.endpoint);
      w->Field("healthy", shard.healthy);
      w->Field("requests", shard.requests);
      w->Field("failures", shard.failures);
      w->Field("consecutive_failures", shard.consecutive_failures);
      w->EndObject();
    }
    w->EndArray();
  }
  w->EndObject();
}

std::string ServerStatsResponse::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.TakeString();
}

// -------------------------------------------------------------- service

Result<std::unique_ptr<Service>> Service::Create(const std::string& root_dir,
                                                 size_t pool_bytes_per_index) {
  // Validate the root by creating it.
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::StorageManager> probe,
                           storage::StorageManager::Create(root_dir));
  (void)probe;
  // The dataset registry is memory-only: datasets a previous process
  // registered are unreachable, so their files go.
  std::error_code ec;
  std::filesystem::remove_all(root_dir + "/datasets", ec);
  if (ec) {
    return Status::IoError("failed to remove stale datasets under '" +
                           root_dir + "': " + ec.message());
  }
  return std::unique_ptr<Service>(
      new Service(root_dir, pool_bytes_per_index));
}

Service::Dataset::~Dataset() {
  if (storage == nullptr) return;
  const std::string directory = storage->directory();
  store.reset();
  storage.reset();
  std::error_code ec;
  std::filesystem::remove_all(directory, ec);
}

Service::Service(std::string root_dir, size_t pool_bytes)
    : root_dir_(std::move(root_dir)), pool_bytes_(pool_bytes) {}

Service::~Service() = default;

void Service::EnableQueryCache(const QueryCacheOptions& options) {
  query_cache_ = std::make_unique<QueryCache>(options);
}

void Service::ConfigureQuotas(const QuotaOptions& options) {
  quota_ = std::make_unique<QuotaEnforcer>(options);
}

ServerStatsResponse Service::ServerStats() const {
  ServerStatsResponse response;
  if (query_cache_ != nullptr) {
    const QueryCacheStats cache = query_cache_->Snapshot();
    response.cache_enabled = true;
    response.cache_entries = cache.entries;
    response.cache_bytes = cache.bytes;
    response.cache_hits = cache.hits;
    response.cache_misses = cache.misses;
    response.cache_inserts = cache.inserts;
    response.cache_evictions = cache.evictions;
    response.cache_stale_drops = cache.stale_drops;
    response.cache_invalidations = cache.invalidations;
    response.cache_negative_enabled = query_cache_->negative_caching_enabled();
    response.cache_negative_hits = cache.negative_hits;
    response.cache_negative_inserts = cache.negative_inserts;
  }
  if (quota_ != nullptr) {
    const QuotaStats quota = quota_->Snapshot();
    response.quota_enabled = true;
    response.quota_admitted = quota.admitted;
    response.quota_throttled = quota.throttled;
    response.quota_unauthenticated = quota.unauthenticated;
  }
  return response;
}

std::shared_ptr<Service::IndexHandle> Service::FindHandle(
    const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end() || it->second->building.load()) return nullptr;
  return it->second;
}

std::shared_ptr<Service::IndexHandle> Service::PinHandle(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindHandle(name);
}

Result<Service::IndexHandle*> Service::ReserveHandle(
    const std::string& index_name, const VariantSpec& spec) {
  if (indexes_.count(index_name) != 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  auto handle = std::make_shared<IndexHandle>();
  handle->spec = spec;
  handle->building.store(true);
  IndexHandle* raw_ptr = handle.get();
  indexes_[index_name] = std::move(handle);
  return raw_ptr;
}

Status Service::InitHandleStorage(const std::string& index_name,
                                  IndexHandle* handle,
                                  const std::string& raw_source) {
  COCONUT_ASSIGN_OR_RETURN(
      handle->storage,
      storage::StorageManager::Create(root_dir_ + "/idx_" + index_name));
  // A leftover directory is normally stale garbage from a crashed prior
  // run — but for a durable stream it is the durable state itself, and
  // create_stream means "open existing" when a log survives. The sharded
  // wrapper keeps its logs inside the per-shard subdirectories; the
  // unsharded log lives at the handle root.
  const bool durable_stream = handle->spec.durable &&
                              handle->spec.mode != StreamMode::kStatic;
  if (durable_stream) {
    handle->recovered =
        handle->spec.num_shards > 1
            ? ShardedStreamingIndex::HasDurableState(handle->storage.get(),
                                                     "stream")
            : handle->storage->Exists("wal");
  }
  if (!handle->recovered) {
    // Clear() can remove_all a large leftover directory from a crashed
    // prior run — one reason this runs outside the registry lock.
    COCONUT_RETURN_NOT_OK(handle->storage->Clear());
  }
  handle->pool = std::make_unique<storage::BufferPool>(pool_bytes_);
  if (durable_stream && handle->spec.num_shards == 1) {
    // Open (or create) the log first: its base frame says how many
    // raw-store ordinals the last truncation folded away, which is where
    // the recovered raw store must resume. The unacknowledged raw tail
    // past the durable prefix is cut; Recover() re-appends every logged
    // payload on top.
    stream::Wal::Options wal_options;
    wal_options.test_hook = handle->spec.wal_test_hook;
    COCONUT_ASSIGN_OR_RETURN(
        handle->wal,
        stream::Wal::Open(handle->storage.get(), "wal",
                          static_cast<uint32_t>(
                              handle->spec.sax.series_length),
                          std::move(wal_options)));
    if (handle->recovered) {
      COCONUT_ASSIGN_OR_RETURN(
          handle->raw,
          core::RawSeriesStore::OpenTruncated(handle->storage.get(), "raw",
                                              handle->spec.sax.series_length,
                                              handle->wal->base_ordinals()));
      return Status::OK();
    }
  }
  if (!raw_source.empty()) {
    COCONUT_RETURN_NOT_OK(handle->storage->LinkFile(raw_source, "raw"));
    COCONUT_ASSIGN_OR_RETURN(
        handle->raw, core::RawSeriesStore::Open(handle->storage.get(), "raw"));
    return Status::OK();
  }
  COCONUT_ASSIGN_OR_RETURN(
      handle->raw,
      core::RawSeriesStore::Create(handle->storage.get(), "raw",
                                   handle->spec.sax.series_length));
  return Status::OK();
}

Result<RegisterDatasetResponse> Service::RegisterDataset(
    const std::string& name, const series::SeriesCollection& data,
    const std::vector<int64_t>* timestamps) {
  COCONUT_RETURN_NOT_OK(ValidateName(name, "dataset"));
  if (data.length() == 0) {
    return Status::InvalidArgument("dataset series length must be positive");
  }
  if (timestamps != nullptr && timestamps->size() != data.size()) {
    return Status::InvalidArgument("one timestamp per series required");
  }
  // Normalizing and writing the series scales with the dataset (up to
  // the wire body cap), so it runs before the lock; the exclusive section
  // is just the duplicate check and the map insert. A racing duplicate
  // wastes the write (its directory goes with it) but stays correct.
  auto ds = std::make_shared<Dataset>();
  COCONUT_ASSIGN_OR_RETURN(
      ds->storage,
      storage::StorageManager::Create(
          root_dir_ + "/datasets/" +
          std::to_string(next_dataset_dir_.fetch_add(1)) + "-" + name));
  COCONUT_ASSIGN_OR_RETURN(
      ds->store, core::RawSeriesStore::Create(
                     ds->storage.get(), "raw", static_cast<int>(data.length())));
  std::vector<float> buf;
  for (size_t i = 0; i < data.size(); ++i) {
    buf.assign(data[i].begin(), data[i].end());
    series::ZNormalize(buf);
    COCONUT_RETURN_NOT_OK(ds->store->Append(buf).status());
  }
  COCONUT_RETURN_NOT_OK(ds->store->Flush());
  if (timestamps != nullptr) {
    ds->timestamps = *timestamps;
  } else {
    ds->timestamps.resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      ds->timestamps[i] = static_cast<int64_t>(i);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (datasets_.count(name) != 0) {
    return Status::AlreadyExists("dataset '" + name + "' already registered");
  }
  datasets_[name] = std::move(ds);
  RegisterDatasetResponse response;
  response.dataset = name;
  response.series = data.size();
  response.series_length = data.length();
  return response;
}

Result<RegisterDatasetResponse> Service::RegisterDataset(
    const RegisterDatasetRequest& request) {
  return RegisterDataset(
      request.name, request.data,
      request.timestamps.has_value() ? &*request.timestamps : nullptr);
}

Result<BuildIndexReport> Service::BuildIndex(const std::string& index_name,
                                             const VariantSpec& spec,
                                             const std::string& dataset_name) {
  COCONUT_RETURN_NOT_OK(ValidateName(index_name, "index"));
  // Builds can take seconds to minutes, so the registry lock is held
  // exclusively only for the reserve and publish edges — and not at all
  // for the build itself (even a shared hold would park every writer,
  // and on writer-preferring shared_mutex implementations every reader,
  // for the full duration). The dataset snapshot is pinned via its
  // shared_ptr, so a concurrent DropDataset cannot free it, and the
  // reserved handle is invisible (FindHandle/ListIndexes skip building
  // handles) and undroppable (DropIndex refuses them), so the builder
  // thread owns it alone.
  IndexHandle* handle = nullptr;
  std::shared_ptr<const Dataset> dataset;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto ds_it = datasets_.find(dataset_name);
    if (ds_it == datasets_.end()) {
      return Status::NotFound("dataset '" + dataset_name +
                              "' not registered");
    }
    if (ds_it->second->store->series_length() != spec.sax.series_length) {
      return Status::InvalidArgument("spec series_length != dataset length");
    }
    dataset = ds_it->second;
    COCONUT_ASSIGN_OR_RETURN(handle, ReserveHandle(index_name, spec));
  }
  Result<BuildIndexReport> report = Status::Internal("build not started");
  // An unsharded index reads the dataset's raw file itself, through a
  // hard link (sharded ones route every series into shard-local stores).
  const std::string raw_source =
      spec.num_shards > 1 ? std::string() : dataset->store->path();
  if (const Status init = InitHandleStorage(index_name, handle, raw_source);
      !init.ok()) {
    report = init;
  } else {
    report =
        BuildIndexOnHandle(index_name, spec, dataset_name, *dataset, handle);
  }
  if (report.ok()) {
    // A republished name restarts its snapshot-version counter, so any
    // cached answers from a previous life of this name must go before the
    // handle becomes visible.
    if (query_cache_ != nullptr) query_cache_->InvalidateIndex(index_name);
    std::unique_lock<std::shared_mutex> lock(mu_);
    handle->building.store(false);
  } else {
    TeardownHandle(index_name, handle);
  }
  return report;
}

Result<BuildIndexReport> Service::BuildIndexOnHandle(
    const std::string& index_name, const VariantSpec& spec,
    const std::string& dataset_name, const Dataset& dataset,
    IndexHandle* handle) {
  WallTimer timer;
  const storage::IoStats before = *handle->storage->io_stats();

  COCONUT_ASSIGN_OR_RETURN(
      handle->static_index,
      CreateStaticIndex(spec, handle->storage.get(), "index",
                        handle->pool.get(), handle->raw.get()));
  // Stream the dataset from disk in chunks: one sequential read per chunk,
  // and never the whole dataset in memory.
  constexpr uint64_t kChunkSeries = 1024;
  const core::RawSeriesStore& source = *dataset.store;
  const size_t length = static_cast<size_t>(source.series_length());
  const uint64_t count = source.count();
  std::vector<float> chunk;
  for (uint64_t first = 0; first < count; first += kChunkSeries) {
    const uint64_t n = std::min(kChunkSeries, count - first);
    chunk.resize(n * length);
    COCONUT_RETURN_NOT_OK(source.GetRange(first, chunk));
    for (uint64_t i = 0; i < n; ++i) {
      COCONUT_RETURN_NOT_OK(handle->static_index->Insert(
          first + i, std::span<const float>(chunk).subspan(i * length, length),
          dataset.timestamps[first + i]));
    }
  }
  if (spec.num_shards > 1) {
    // The handle-level store of a sharded index stays empty; an unsharded
    // one is the dataset's file, never written through.
    COCONUT_RETURN_NOT_OK(handle->raw->Flush());
  }
  COCONUT_RETURN_NOT_OK(handle->static_index->Finalize());
  handle->next_series_id = count;
  handle->build_seconds = timer.ElapsedSeconds();
  handle->build_io = handle->storage->io_stats()->Since(before);
  // Sharded builds do their I/O through per-shard storage managers (fresh
  // at this point, so totals == this build); fold them into the report.
  if (auto* sharded =
          dynamic_cast<ShardedIndex*>(handle->static_index.get());
      sharded != nullptr) {
    handle->build_io.Add(sharded->AggregateIoStats());
  }

  BuildIndexReport report;
  report.index = index_name;
  report.variant = VariantName(spec);
  report.dataset = dataset_name;
  report.shards = spec.num_shards;
  report.entries = handle->static_index->num_entries();
  report.build_seconds = handle->build_seconds;
  report.index_bytes = handle->static_index->index_bytes();
  report.total_bytes = handle->storage->TotalBytesOnDisk();
  report.io = handle->build_io;
  return report;
}

Result<BuildIndexReport> Service::BuildIndex(const BuildIndexRequest& request) {
  return BuildIndex(request.index, request.spec, request.dataset);
}

Result<CreateStreamResponse> Service::CreateStream(
    const std::string& stream_name, const VariantSpec& spec) {
  COCONUT_RETURN_NOT_OK(ValidateName(stream_name, "stream"));
  // Same reserve -> construct -> publish shape as BuildIndex: the handle
  // stays invisible while its streaming index is created outside the
  // exclusive lock (the builder thread is the only one touching it).
  IndexHandle* handle = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    COCONUT_ASSIGN_OR_RETURN(handle, ReserveHandle(stream_name, spec));
  }
  // Failed creations normally tear the directory down so the name stays
  // reusable — but when the directory held durable state to recover, a
  // failed recovery (a corrupt log, a missing partition) must unregister
  // the name WITHOUT deleting the only copy of the log it failed to
  // read; the operator decides what to salvage.
  const auto discard = [this, &stream_name](IndexHandle* h) {
    if (!h->recovered) {
      TeardownHandle(stream_name, h);
      return;
    }
    h->stream_index.reset();
    h->static_index.reset();
    h->wal.reset();
    h->raw.reset();
    h->pool.reset();
    h->storage.reset();
    std::unique_lock<std::shared_mutex> lock(mu_);
    indexes_.erase(stream_name);
  };
  if (const Status init = InitHandleStorage(stream_name, handle);
      !init.ok()) {
    discard(handle);
    return init;
  }
  // The spec the factory sees carries the process-local log pointer (the
  // registered handle->spec keeps wire fields only). Sharded durable
  // streams ignore it and open per-shard logs; the factory recovers them
  // from disk by itself.
  VariantSpec wired = spec;
  wired.wal = handle->wal.get();
  Result<std::unique_ptr<stream::StreamingIndex>> created =
      CreateStreamingIndex(wired, handle->storage.get(), "stream",
                           handle->pool.get(), handle->raw.get());
  if (!created.ok()) {
    // An invalid spec must not leave a half-initialized handle behind:
    // every registered handle carries a static or streaming index
    // (ListIndexes/Query/DropIndex rely on it), and the name and its
    // directory must stay reusable.
    discard(handle);
    return created.status();
  }
  handle->stream_index = created.TakeValue();
  if (auto* sharded_recovered = dynamic_cast<ShardedStreamingIndex*>(
          handle->stream_index.get());
      sharded_recovered != nullptr) {
    // 0 for a fresh sharded stream; max recovered global id + 1 after a
    // sharded recovery (the factory replayed the per-shard logs inside
    // Recover()).
    handle->next_series_id = sharded_recovered->recovered_next_series_id();
  } else if (handle->recovered) {
    // Unsharded recovery: the index above was created empty with the log
    // already wired in; restore the newest durable checkpoint and replay
    // the acknowledged suffix through the normal ingest path.
    stream::WalRecoverOutcome outcome;
    if (const Status st = handle->wal->Recover(handle->stream_index.get(),
                                               handle->raw.get(), &outcome);
        !st.ok()) {
      discard(handle);
      return st;
    }
    handle->next_series_id = outcome.ordinals;
  }
  // See BuildIndex: a recreated name restarts its version counter.
  if (query_cache_ != nullptr) query_cache_->InvalidateIndex(stream_name);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    handle->building.store(false);
  }
  CreateStreamResponse response;
  response.stream = stream_name;
  response.variant = VariantName(spec);
  return response;
}

std::error_code Service::TeardownHandle(const std::string& name,
                                        IndexHandle* handle) {
  // The handle is tombstoned (building == true): lookups skip it, drops
  // refuse it, and the map entry keeps the name — and therefore the
  // directory — reserved. So this thread owns the handle, and the slow
  // parts (flushing destructors, deleting the directory tree) run
  // without the registry lock. Reset order mirrors the member destructor
  // order: index structures flush through the raw store / pool / storage
  // below them. storage is null when InitHandleStorage itself failed;
  // the directory path is deterministic either way.
  const std::string directory = handle->storage != nullptr
                                    ? handle->storage->directory()
                                    : root_dir_ + "/idx_" + name;
  handle->stream_index.reset();
  handle->static_index.reset();
  handle->wal.reset();
  handle->raw.reset();
  handle->pool.reset();
  handle->storage.reset();
  std::error_code ec;
  std::filesystem::remove_all(directory, ec);
  std::unique_lock<std::shared_mutex> lock(mu_);
  indexes_.erase(name);
  return ec;
}

Result<CreateStreamResponse> Service::CreateStream(
    const CreateStreamRequest& request) {
  return CreateStream(request.stream, request.spec);
}

Result<IngestBatchReport> Service::IngestBatch(
    const std::string& stream_name, const series::SeriesCollection& batch,
    const std::vector<int64_t>& timestamps) {
  // Pin the handle with one brief shared hold; the batch itself — which
  // kBlock backpressure can stall indefinitely — runs under the handle's
  // op mutex with no registry lock held, so it never parks registry
  // writers or unrelated indexes.
  std::shared_ptr<IndexHandle> handle = PinHandle(stream_name);
  if (handle == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }
  if (timestamps.size() != batch.size()) {
    return Status::InvalidArgument("one timestamp per series required");
  }
  if (batch.size() > 0 &&
      static_cast<int>(batch.length()) != handle->spec.sax.series_length) {
    return Status::InvalidArgument(
        "batch series length " + std::to_string(batch.length()) +
        " != stream series length " +
        std::to_string(handle->spec.sax.series_length));
  }
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  // A concurrent DropIndex tombstones, then waits on op_mutex: if it won
  // that race the members below are torn down — bounce like a miss.
  if (handle->building.load() || handle->stream_index == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }

  WallTimer timer;
  // A sharded stream routes every series into a shard-local raw store and
  // does its I/O through per-shard storage managers; the handle-level
  // store would be a dead second copy and the handle-level counters would
  // read zero (same treatment as the static sharded build path).
  auto* sharded =
      dynamic_cast<ShardedStreamingIndex*>(handle->stream_index.get());
  // Snapshot reads: background seals/merges of an async stream may be
  // doing I/O while this batch is admitted.
  storage::IoStats before = handle->storage->SnapshotIoStats();
  if (sharded != nullptr) before.Add(sharded->AggregateIoStats());
  std::vector<float> buf;
  uint64_t admitted = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    buf.assign(batch[i].begin(), batch[i].end());
    series::ZNormalize(buf);
    // Series ids are raw-store ordinals (queries fetch by id), so take the
    // id Append assigned — or, sharded, the next global ordinal (the
    // wrapper appends to its shard's store and maps local ids back). If
    // the index then rejects the entry (a kStrict timestamp regression, a
    // backpressure reject), the ordinal stays burned as an unindexed raw
    // slot — ids of previously and subsequently admitted series keep
    // lining up either way.
    uint64_t id;
    if (sharded != nullptr) {
      id = handle->next_series_id;
    } else {
      COCONUT_ASSIGN_OR_RETURN(id, handle->raw->Append(buf));
    }
    handle->next_series_id = id + 1;
    const Status st = handle->stream_index->Ingest(id, buf, timestamps[i]);
    if (!st.ok() && handle->wal != nullptr) {
      // The ordinal above is burned whether or not the index admitted the
      // entry, so the log must burn it too — otherwise a replay would
      // assign later admits shifted ordinals. (Sharded streams journal
      // their own holes inside the wrapper; handle->wal is null there.)
      handle->wal->AppendHole();
    }
    if (st.code() == StatusCode::kResourceExhausted && admitted > 0) {
      // Reject-mode backpressure mid-batch: the admitted prefix cannot be
      // un-ingested, so report it truthfully (ingested < batch size, the
      // reject visible in ingest_rejects) instead of failing the whole
      // batch — a client that retried the full batch on 429 would
      // duplicate the prefix. A 429 therefore always means ZERO progress:
      // retry the same batch after draining.
      break;
    }
    COCONUT_RETURN_NOT_OK(st);
    ++admitted;
  }
  if (sharded == nullptr) {
    COCONUT_RETURN_NOT_OK(handle->raw->Flush());
  }
  // The durability ack gate: the report below tells the client the
  // admitted prefix is ingested, so its group commit must be on disk
  // first (one fdatasync per batch, fanned across shards when sharded).
  // No-op for non-durable streams.
  COCONUT_RETURN_NOT_OK(handle->stream_index->CommitDurable());

  const stream::StreamingStats stats =
      handle->stream_index->SnapshotStats();
  IngestBatchReport report;
  report.stream = stream_name;
  report.ingested = admitted;
  report.total_entries = stats.entries;
  report.partitions = stats.sealed_partitions;
  report.buffered = stats.buffered;
  report.pending_tasks = stats.pending_tasks;
  report.seals_completed = stats.seals_completed;
  report.merges_completed = stats.merges_completed;
  report.seals_inflight = stats.seals_inflight;
  report.ingest_stalls = stats.ingest_stalls;
  report.ingest_rejects = stats.ingest_rejects;
  report.stall_ms_p50 = stats.stall_ms_p50;
  report.stall_ms_p99 = stats.stall_ms_p99;
  report.seconds = timer.ElapsedSeconds();
  storage::IoStats after = handle->storage->SnapshotIoStats();
  if (sharded != nullptr) after.Add(sharded->AggregateIoStats());
  report.io = after.Since(before);
  return report;
}

Result<IngestBatchReport> Service::IngestBatch(
    const IngestBatchRequest& request) {
  return IngestBatch(request.stream, request.batch, request.timestamps);
}

Result<DrainStreamReport> Service::DrainStream(const std::string& stream_name) {
  // Like IngestBatch: pin, release the registry, drain under op_mutex
  // only — a long drain barrier must not park registry writers.
  std::shared_ptr<IndexHandle> handle = PinHandle(stream_name);
  if (handle == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  if (handle->building.load() || handle->stream_index == nullptr) {
    return Status::NotFound("stream '" + stream_name + "' not found");
  }
  WallTimer timer;
  COCONUT_RETURN_NOT_OK(handle->stream_index->FlushAll());
  // A drained stream is fully sealed and checkpointed, so the logs can
  // shrink to their base frame: recovering a drained stream replays
  // nothing.
  if (auto* sharded_drained = dynamic_cast<ShardedStreamingIndex*>(
          handle->stream_index.get());
      sharded_drained != nullptr) {
    COCONUT_RETURN_NOT_OK(sharded_drained->TruncateDurableLogs());
  } else if (handle->wal != nullptr) {
    COCONUT_RETURN_NOT_OK(handle->wal->TruncateBefore(handle->raw.get()));
  }
  const stream::StreamingStats stats =
      handle->stream_index->SnapshotStats();
  DrainStreamReport report;
  report.stream = stream_name;
  report.drained = true;
  report.drain_seconds = timer.ElapsedSeconds();
  report.total_entries = stats.entries;
  report.partitions = stats.sealed_partitions;
  report.buffered = stats.buffered;
  report.pending_tasks = stats.pending_tasks;
  report.seals_completed = stats.seals_completed;
  report.merges_completed = stats.merges_completed;
  report.seals_inflight = stats.seals_inflight;
  report.ingest_stalls = stats.ingest_stalls;
  report.ingest_rejects = stats.ingest_rejects;
  report.stall_ms_p50 = stats.stall_ms_p50;
  report.stall_ms_p99 = stats.stall_ms_p99;
  report.index_bytes = handle->stream_index->index_bytes();
  report.total_bytes = handle->storage->TotalBytesOnDisk();
  return report;
}

Result<DrainStreamReport> Service::DrainStream(
    const DrainStreamRequest& request) {
  return DrainStream(request.stream);
}

Result<QueryReport> Service::Query(const QueryRequest& request) {
  std::shared_ptr<IndexHandle> handle = PinHandle(request.index);
  if (handle == nullptr) {
    return Status::NotFound("index '" + request.index + "' not found");
  }
  // Validate at the API boundary: a malformed query used to reach the
  // index layers and misbehave there (empty spans, wrong-length distance
  // computations, zero candidate heaps).
  if (request.query.empty()) {
    return Status::InvalidArgument("query vector must not be empty");
  }
  if (static_cast<int>(request.query.size()) !=
      handle->spec.sax.series_length) {
    return Status::InvalidArgument(
        "query length " + std::to_string(request.query.size()) +
        " != index series length " +
        std::to_string(handle->spec.sax.series_length));
  }
  if (request.approx_candidates <= 0) {
    return Status::InvalidArgument("approx_candidates must be positive");
  }
  if (request.window.has_value() &&
      request.window->begin > request.window->end) {
    // The wire parser rejects this too; re-checked here so the typed
    // in-process path cannot slip an inverted window into a silent empty
    // scan.
    return Status::InvalidArgument(
        "query window begin must be <= end (got begin=" +
        std::to_string(request.window->begin) +
        ", end=" + std::to_string(request.window->end) + ")");
  }
  if (request.capture_heatmap) {
    if (request.heatmap_time_bins == 0 ||
        request.heatmap_location_bins == 0) {
      return Status::InvalidArgument("heatmap bins must be positive");
    }
    // BuildHeatMap allocates time_bins * location_bins cells up front.
    if (request.heatmap_time_bins > kMaxHeatMapBinsPerAxis ||
        request.heatmap_location_bins > kMaxHeatMapBinsPerAxis) {
      return Status::InvalidArgument(
          "heatmap bins exceed the maximum of " +
          std::to_string(kMaxHeatMapBinsPerAxis) + " per axis");
    }
  }
  QueryCache* cache = query_cache_.get();
  const bool cacheable = cache != nullptr && QueryCache::Cacheable(request);
  const std::string cache_key =
      cacheable ? QueryCache::KeyFor(request) : std::string();
  // Fill guard: only a scan bracketed by two equal version reads observed
  // one stable snapshot. The version counter is monotone (never reused,
  // never rolled back), so a publish racing the scan — a background seal
  // or merge, or direct-library ingest outside the service — makes the
  // bracket differ and the entry is simply not stamped: a stale answer
  // can never be inserted at the new version.
  const auto answer = [&]() -> Result<QueryReport> {
    if (handle->building.load()) {
      return Status::NotFound("index '" + request.index + "' not found");
    }
    const uint64_t version_before = cacheable ? IndexVersion(*handle) : 0;
    Result<QueryReport> report = ExecuteQuery(request, handle.get());
    if (cacheable && report.ok() && IndexVersion(*handle) == version_before) {
      cache->Insert(cache_key, request.index, version_before, report.value());
    }
    return report;
  };
  {
    // The handle's index members stay alive inside an epoch guard that
    // saw no tombstone: DropIndex tears them down only after its
    // Synchronize, which waits every such guard out — and before the
    // cache purge, so no stale entry outlives the drop.
    stream::epoch::EpochGuard guard;
    if (handle->building.load()) {
      return Status::NotFound("index '" + request.index + "' not found");
    }
    // Cache probe, off the op mutex: serving a hit touches no index
    // state. A hit requires the entry's snapshot version to equal the
    // index's current one, so a concurrent admission that lands just
    // after this read merely orders the (cached) query before the ingest
    // — the answer is still the exact answer at its version.
    if (cacheable) {
      if (std::optional<QueryReport> hit =
              cache->Lookup(cache_key, IndexVersion(*handle))) {
        return *std::move(hit);
      }
    }
    // Lock-free read path: the whole read — scan and cache stamp — stays
    // inside the guard, so a query never stalls behind a write to its
    // index or behind another query.
    if (ReadsLockFree(*handle)) return answer();
  }
  std::lock_guard<std::mutex> op_lock(handle->op_mutex);
  return answer();
}

bool Service::ReadsLockFree(const IndexHandle& handle) {
  return handle.static_index != nullptr ||
         (handle.stream_index != nullptr &&
          handle.stream_index->ConcurrentReadsSafe());
}

uint64_t Service::IndexVersion(const IndexHandle& handle) {
  if (handle.static_index != nullptr) {
    return handle.static_index->snapshot_version();
  }
  if (handle.stream_index != nullptr) {
    return handle.stream_index->snapshot_version();
  }
  return 0;
}

Result<QueryReport> Service::ExecuteQuery(const QueryRequest& request,
                                          IndexHandle* handle) {
  std::vector<float> query = request.query;
  series::ZNormalize(query);

  core::SearchOptions options;
  if (request.window.has_value()) options.window = *request.window;
  options.approx_candidates = request.approx_candidates;

  if (request.capture_heatmap &&
      (dynamic_cast<ShardedIndex*>(handle->static_index.get()) != nullptr ||
       dynamic_cast<ShardedStreamingIndex*>(handle->stream_index.get()) !=
           nullptr)) {
    // Shards number their files independently, so their accesses share
    // no location axis; a heat map would misplace them. Refuse instead.
    return Status::NotSupported(
        "heat maps are not captured for sharded indexes yet");
  }

  core::QueryCounters counters;
  // Everything this thread (and a sharded index's fan-out tasks) reads
  // for the query is charged here, and nothing else: concurrent queries
  // and background seals/merges report through their own scopes.
  storage::IoScope scope(request.capture_heatmap);
  WallTimer timer;
  Result<core::SearchResult> result =
      handle->static_index != nullptr
          ? (request.exact
                 ? handle->static_index->ExactSearch(query, options, &counters)
                 : handle->static_index->ApproxSearch(query, options,
                                                      &counters))
          : (request.exact
                 ? handle->stream_index->ExactSearch(query, options, &counters)
                 : handle->stream_index->ApproxSearch(query, options,
                                                      &counters));
  const double seconds = timer.ElapsedSeconds();
  if (!result.ok()) return result.status();
  const core::SearchResult& match = result.value();

  QueryReport report;
  report.index = request.index;
  report.exact = request.exact;
  report.found = match.found;
  if (match.found) {
    report.series_id = match.series_id;
    report.distance = std::sqrt(match.distance_sq);
    report.timestamp = match.timestamp;
  }
  report.seconds = seconds;
  report.io = scope.stats();
  report.counters = counters;
  if (request.capture_heatmap) {
    report.has_heatmap = true;
    report.heatmap = BuildHeatMap(scope.accesses(), request.heatmap_time_bins,
                                  request.heatmap_location_bins);
    report.access_locality = AccessLocality(scope.accesses());
  }
  return report;
}

void Service::QueryGroup(const std::vector<QueryRequest>& requests,
                         const std::vector<size_t>& ordinals,
                         std::vector<Result<QueryReport>>* results) {
  if (ordinals.empty()) return;
  // One pin for the whole group (every member names the same index).
  std::shared_ptr<IndexHandle> handle =
      PinHandle(requests[ordinals.front()].index);

  // Cache probe per ordinal before any bucketing: a hit is served verbatim
  // (it was filled by the single-query path, so batch_size stays 1) and
  // the miss set proceeds. Batched (shared-scan) results are never
  // inserted — their seconds/io fields are bucket-amortized, so caching
  // them would replay a different wire shape than a fresh single query.
  std::vector<size_t> pending;
  pending.reserve(ordinals.size());
  QueryCache* cache = query_cache_.get();
  if (cache != nullptr && handle != nullptr) {
    for (size_t ordinal : ordinals) {
      const QueryRequest& r = requests[ordinal];
      if (QueryCache::Cacheable(r)) {
        if (std::optional<QueryReport> hit =
                cache->Lookup(QueryCache::KeyFor(r), IndexVersion(*handle))) {
          (*results)[ordinal] = *std::move(hit);
          continue;
        }
      }
      pending.push_back(ordinal);
    }
  } else {
    pending = ordinals;
  }

  // Bucket the requests that can share one exact scan: static index, exact,
  // no heatmap, valid query shape, valid window, and identical search
  // options (window + approx_candidates) — the batch path evaluates one
  // SearchOptions for the whole bucket. Everything else keeps the
  // per-request Query path, which also produces the precise per-request
  // validation errors.
  std::vector<size_t> fallback;
  std::vector<std::pair<const QueryRequest*, std::vector<size_t>>> buckets;
  if (handle != nullptr && handle->static_index != nullptr) {
    for (size_t ordinal : pending) {
      const QueryRequest& r = requests[ordinal];
      const bool eligible =
          r.exact && !r.capture_heatmap && !r.query.empty() &&
          static_cast<int>(r.query.size()) == handle->spec.sax.series_length &&
          r.approx_candidates > 0 &&
          (!r.window.has_value() || r.window->begin <= r.window->end);
      if (!eligible) {
        fallback.push_back(ordinal);
        continue;
      }
      bool placed = false;
      for (auto& [rep, members] : buckets) {
        const bool same_window =
            rep->window.has_value() == r.window.has_value() &&
            (!r.window.has_value() ||
             (rep->window->begin == r.window->begin &&
              rep->window->end == r.window->end));
        if (same_window && rep->approx_candidates == r.approx_candidates) {
          members.push_back(ordinal);
          placed = true;
          break;
        }
      }
      if (!placed) buckets.emplace_back(&r, std::vector<size_t>{ordinal});
    }
  } else {
    fallback = pending;
  }

  for (auto& [rep, members] : buckets) {
    (void)rep;
    if (members.size() >= 2) {
      QueryBatched(requests, members, handle.get(), results);
    } else {
      fallback.push_back(members.front());
    }
  }
  for (size_t ordinal : fallback) {
    (*results)[ordinal] = Query(requests[ordinal]);
  }
}

void Service::QueryBatched(const std::vector<QueryRequest>& requests,
                           const std::vector<size_t>& ordinals,
                           IndexHandle* handle,
                           std::vector<Result<QueryReport>>* results) {
  const size_t nq = ordinals.size();
  // Z-normalized copies; the index layers take spans over them.
  std::vector<std::vector<float>> queries(nq);
  std::vector<std::span<const float>> spans(nq);
  for (size_t i = 0; i < nq; ++i) {
    queries[i] = requests[ordinals[i]].query;
    series::ZNormalize(queries[i]);
    spans[i] = queries[i];
  }

  const QueryRequest& first = requests[ordinals.front()];
  core::SearchOptions options;
  if (first.window.has_value()) options.window = *first.window;
  options.approx_candidates = first.approx_candidates;

  // Static indexes answer lock-free under an epoch guard, exactly like
  // single queries (see Query).
  stream::epoch::EpochGuard guard;
  if (handle->building.load()) {
    for (size_t ordinal : ordinals) {
      (*results)[ordinal] = Status::NotFound(
          "index '" + requests[ordinal].index + "' not found");
    }
    return;
  }

  std::vector<core::SearchResult> matches(nq);
  std::vector<core::QueryCounters> counters(nq);
  storage::IoScope scope;
  WallTimer timer;
  Status st =
      handle->static_index->ExactSearchBatch(spans, options, matches, counters);
  const double seconds = timer.ElapsedSeconds();
  if (!st.ok()) {
    for (size_t ordinal : ordinals) (*results)[ordinal] = st;
    return;
  }
  for (size_t i = 0; i < nq; ++i) {
    const size_t ordinal = ordinals[i];
    QueryReport report;
    report.index = requests[ordinal].index;
    report.exact = true;
    report.found = matches[i].found;
    if (matches[i].found) {
      report.series_id = matches[i].series_id;
      report.distance = std::sqrt(matches[i].distance_sq);
      report.timestamp = matches[i].timestamp;
    }
    // The scan is shared: wall time is amortized evenly and the I/O delta
    // covers the whole bucket (per-query attribution is undefined there).
    report.seconds = seconds / static_cast<double>(nq);
    report.io = scope.stats();
    report.counters = counters[i];
    report.batch_size = nq;
    (*results)[ordinal] = std::move(report);
  }
}

std::vector<Result<QueryReport>> Service::QueryBatch(
    const std::vector<QueryRequest>& requests, size_t threads) {
  std::vector<Result<QueryReport>> results(
      requests.size(),
      Result<QueryReport>(Status::Internal("not executed")));
  if (requests.empty()) return results;

  // Group request ordinals by target index: a group's exact requests can
  // share one scan (QueryGroup buckets them), and distinct indexes
  // proceed in parallel.
  std::map<std::string, std::vector<size_t>> by_index;
  for (size_t i = 0; i < requests.size(); ++i) {
    by_index[requests[i].index].push_back(i);
  }

  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min<size_t>(8, hw == 0 ? 1 : hw);
  }
  threads = std::min(threads, by_index.size());

  ThreadPool pool(threads);
  for (auto& [index_name, ordinals] : by_index) {
    (void)index_name;
    const std::vector<size_t>* group = &ordinals;
    pool.Submit([this, group, &requests, &results] {
      QueryGroup(requests, *group, &results);
    });
  }
  pool.Wait();
  return results;
}

QueryBatchResponse Service::QueryBatchResponseFor(
    const std::vector<QueryRequest>& requests, size_t threads) {
  std::vector<Result<QueryReport>> results = QueryBatch(requests, threads);
  QueryBatchResponse response;
  response.results.reserve(results.size());
  for (Result<QueryReport>& result : results) {
    QueryBatchResponse::Entry entry;
    entry.ok = result.ok();
    if (result.ok()) {
      entry.report = result.TakeValue();
    } else {
      entry.error = ApiError::FromStatus(result.status());
    }
    response.results.push_back(std::move(entry));
  }
  return response;
}

RecommendResponse Service::Recommend(const Scenario& scenario) {
  Recommendation rec = palm::Recommend(scenario);
  RecommendResponse response;
  response.variant = rec.variant_name();
  response.materialized = rec.spec.materialized;
  response.fill_factor = rec.spec.fill_factor;
  response.growth_factor = rec.spec.growth_factor;
  response.buffer_entries = rec.spec.buffer_entries;
  response.rationale = rec.rationale;
  return response;
}

ListIndexesResponse Service::ListIndexes() const {
  // Snapshot the pinned handles under one brief shared hold, then read
  // each one under its op mutex with no registry lock — waiting out a
  // backpressure-stalled ingest on one index must not park the registry
  // for everyone else.
  std::vector<std::pair<std::string, std::shared_ptr<IndexHandle>>> pinned;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    pinned.reserve(indexes_.size());
    for (const auto& [name, handle] : indexes_) {
      // A building handle has reserved its name but carries no index yet;
      // its fields belong to the builder thread until published.
      if (handle->building.load()) continue;
      pinned.emplace_back(name, handle);
    }
  }
  ListIndexesResponse response;
  response.indexes.reserve(pinned.size());
  for (const auto& [name, handle] : pinned) {
    auto read_info = [&](const std::string& index_name) {
      ListIndexesResponse::IndexInfo info;
      info.name = index_name;
      info.variant = VariantName(handle->spec);
      info.streaming = handle->stream_index != nullptr;
      info.shards = handle->spec.num_shards;
      info.entries = handle->static_index != nullptr
                         ? handle->static_index->num_entries()
                         : handle->stream_index->num_entries();
      info.total_bytes = handle->storage->TotalBytesOnDisk();
      response.indexes.push_back(std::move(info));
    };
    {
      // Static indexes and epoch-snapshot streams answer stats reads
      // lock-free; taking the op mutex here would park the listing behind
      // a backpressure-blocked ingest batch on this one index. The guard
      // keeps the members alive against a concurrent DropIndex.
      stream::epoch::EpochGuard guard;
      if (handle->building.load()) continue;
      if (ReadsLockFree(*handle)) {
        read_info(name);
        continue;
      }
    }
    // Serialize with per-index operations: sync streaming indexes update
    // entry counts without internal synchronization.
    std::lock_guard<std::mutex> op_lock(handle->op_mutex);
    // Dropped between the snapshot and here: skip, like the lookup miss.
    if (handle->building.load()) continue;
    read_info(name);
  }
  return response;
}

Result<DropIndexResponse> Service::DropIndex(const std::string& index_name) {
  std::shared_ptr<IndexHandle> handle;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = indexes_.find(index_name);
    if (it == indexes_.end()) {
      return Status::NotFound("index '" + index_name + "' not found");
    }
    if (it->second->building.load()) {
      // The owning thread (a build, or another drop) holds the handle
      // until it publishes or erases; erasing it here would free memory
      // that thread is using. 409: the name exists but is contended.
      return Status::AlreadyExists("index '" + index_name +
                                   "' is busy (building or being "
                                   "dropped); retry shortly");
    }
    handle = it->second;
    // Tombstone the handle: no new op can find it, and ops already past
    // the lookup hold either the op_mutex this thread acquires next or an
    // epoch guard the Synchronize below waits out — so the quiesce waits
    // out any in-flight batch (even one stalled on backpressure) and the
    // teardown after it runs exclusively, all without the registry lock.
    handle->building.store(true);
  }
  DropIndexResponse response;
  response.index = index_name;
  std::string directory;
  {
    std::lock_guard<std::mutex> op_lock(handle->op_mutex);
    directory = handle->storage->directory();
    response.streaming = handle->stream_index != nullptr;
    if (handle->stream_index != nullptr) {
      // Quiesce background seals/merges before tearing the stack down. A
      // drain error does not block the drop — the handle is going away
      // either way and its destructor waits for stragglers.
      (void)handle->stream_index->FlushAll();
      response.entries = handle->stream_index->num_entries();
    } else {
      response.entries = handle->static_index->num_entries();
    }
    response.reclaimed_bytes = handle->storage->TotalBytesOnDisk();
  }
  // Wait out every lock-free reader that pinned the handle before the
  // tombstone above: each checks `building` inside its epoch guard, so any
  // query still touching this index's snapshots (or about to stamp its
  // cache) entered before the store and is drained here. After this
  // barrier no thread can insert a stale entry under this name or touch
  // the stack the teardown below destroys.
  stream::epoch::EpochManager::Global().Synchronize();
  // The name is about to disappear; purge its cached answers so a future
  // index reusing the name (whose version counter restarts at 0) can
  // never collide with this one's entries.
  if (query_cache_ != nullptr) query_cache_->InvalidateIndex(index_name);
  // op_mutex released before TeardownHandle takes mu_ exclusively (never
  // hold both): late ops that pinned the handle pre-tombstone bounce off
  // `building` under the op mutex instead of touching torn-down members.
  const std::error_code ec = TeardownHandle(index_name, handle.get());
  if (ec) {
    return Status::IoError("failed to remove '" + directory +
                           "': " + ec.message());
  }
  response.dropped = true;
  return response;
}

Result<DropIndexResponse> Service::DropIndex(const DropIndexRequest& request) {
  return DropIndex(request.index);
}

Result<DropDatasetResponse> Service::DropDataset(
    const std::string& dataset_name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = datasets_.find(dataset_name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + dataset_name + "' not registered");
  }
  DropDatasetResponse response;
  response.dataset = dataset_name;
  response.series = it->second->store->count();
  datasets_.erase(it);
  response.dropped = true;
  return response;
}

Result<DropDatasetResponse> Service::DropDataset(
    const DropDatasetRequest& request) {
  return DropDataset(request.dataset);
}

core::DataSeriesIndex* Service::static_index(const std::string& name) {
  std::shared_ptr<IndexHandle> handle = PinHandle(name);
  return handle == nullptr ? nullptr : handle->static_index.get();
}

stream::StreamingIndex* Service::stream_index(const std::string& name) {
  std::shared_ptr<IndexHandle> handle = PinHandle(name);
  return handle == nullptr ? nullptr : handle->stream_index.get();
}

storage::StorageManager* Service::index_storage(const std::string& name) {
  std::shared_ptr<IndexHandle> handle = PinHandle(name);
  return handle == nullptr ? nullptr : handle->storage.get();
}

// ------------------------------------------------------------- dispatch

namespace {

/// The common parse -> typed call -> serialize shape of a dispatched
/// method.
template <typename Request, typename Response>
Result<std::string> RunTyped(const JsonValue& params,
                             Result<Response> (Service::*method)(
                                 const Request&),
                             Service* service) {
  COCONUT_ASSIGN_OR_RETURN(const Request request, Request::FromJson(params));
  COCONUT_ASSIGN_OR_RETURN(const Response response,
                           (service->*method)(request));
  return response.ToJsonString();
}

struct MethodEntry {
  const char* name;
  Result<std::string> (*handler)(Service* service, const JsonValue& params);
};

/// The single method registry: Dispatch routes through it and Methods()
/// projects its names, so the two cannot drift. Sorted by name.
constexpr MethodEntry kMethodTable[] = {
    {"build_index",
     [](Service* s, const JsonValue& p) {
       return RunTyped<BuildIndexRequest>(p, &Service::BuildIndex, s);
     }},
    {"create_stream",
     [](Service* s, const JsonValue& p) {
       return RunTyped<CreateStreamRequest>(p, &Service::CreateStream, s);
     }},
    {"drain_stream",
     [](Service* s, const JsonValue& p) {
       return RunTyped<DrainStreamRequest>(p, &Service::DrainStream, s);
     }},
    {"drop_dataset",
     [](Service* s, const JsonValue& p) {
       return RunTyped<DropDatasetRequest>(p, &Service::DropDataset, s);
     }},
    {"drop_index",
     [](Service* s, const JsonValue& p) {
       return RunTyped<DropIndexRequest>(p, &Service::DropIndex, s);
     }},
    {"ingest_batch",
     [](Service* s, const JsonValue& p) {
       return RunTyped<IngestBatchRequest>(p, &Service::IngestBatch, s);
     }},
    {"list_indexes",
     [](Service* s, const JsonValue& p) -> Result<std::string> {
       if (!p.is_object() || !p.object().empty()) {
         return Status::InvalidArgument("list_indexes takes no parameters");
       }
       return s->ListIndexes().ToJsonString();
     }},
    {"query",
     [](Service* s, const JsonValue& p) {
       return RunTyped<QueryRequest>(p, &Service::Query, s);
     }},
    {"query_batch",
     [](Service* s, const JsonValue& p) -> Result<std::string> {
       COCONUT_ASSIGN_OR_RETURN(const QueryBatchRequest request,
                                QueryBatchRequest::FromJson(p));
       return s->QueryBatchResponseFor(request.queries,
                                       static_cast<size_t>(request.threads))
           .ToJsonString();
     }},
    {"recommend",
     [](Service* s, const JsonValue& p) -> Result<std::string> {
       COCONUT_ASSIGN_OR_RETURN(const RecommendRequest request,
                                RecommendRequest::FromJson(p));
       return s->Recommend(request.scenario).ToJsonString();
     }},
    {"register_dataset",
     [](Service* s, const JsonValue& p) {
       return RunTyped<RegisterDatasetRequest>(p, &Service::RegisterDataset,
                                               s);
     }},
    {"server_stats",
     [](Service* s, const JsonValue& p) -> Result<std::string> {
       if (!p.is_object() || !p.object().empty()) {
         return Status::InvalidArgument("server_stats takes no parameters");
       }
       return s->ServerStats().ToJsonString();
     }},
};

}  // namespace

const std::vector<std::string>& Service::Methods() {
  static const std::vector<std::string> kMethods = [] {
    std::vector<std::string> names;
    for (const MethodEntry& entry : kMethodTable) {
      names.emplace_back(entry.name);
    }
    return names;
  }();
  return kMethods;
}

Result<std::string> Service::Dispatch(const std::string& method,
                                      const std::string& params_json) {
  return Dispatch(method, params_json, std::string());
}

Result<std::string> Service::Dispatch(const std::string& method,
                                      const std::string& params_json,
                                      const std::string& client_token) {
  // Admission first: a throttled client pays for nothing past the token
  // bucket — not even the params parse.
  if (quota_ != nullptr) {
    COCONUT_RETURN_NOT_OK(quota_->Admit(client_token));
  }
  COCONUT_ASSIGN_OR_RETURN(
      const JsonValue params,
      JsonParse(params_json.empty() ? std::string_view("{}")
                                    : std::string_view(params_json)));
  for (const MethodEntry& entry : kMethodTable) {
    if (method == entry.name) return entry.handler(this, params);
  }
  std::string known;
  for (const std::string& m : Methods()) {
    if (!known.empty()) known += ", ";
    known += m;
  }
  return Status::NotFound("unknown method '" + method +
                          "' (known methods: " + known + ")");
}

}  // namespace api
}  // namespace palm
}  // namespace coconut
