// Minimal self-contained JSON reader / writer (no external dependencies).
//
// Scenario and campaign specifications, as well as machine-readable result
// artifacts, are plain JSON so that experiments are declarative, diffable
// and scriptable.  The subset implemented is exactly RFC 8259 minus \u
// surrogate pairs (basic-plane escapes are supported); numbers are stored
// as double, which is lossless for the integer ranges this project emits
// (< 2^53).
//
// Object member order is preserved on parse and round-trips through dump(),
// so serialisation is deterministic: the same value always produces the
// same bytes.  That property backs the campaign pipeline's bit-identical
// reproducibility guarantee.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace clktune::util {

/// Error thrown on malformed JSON input or a type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// Json::parse on containers nested deeper than its cap (512 levels).
class JsonTooDeep : public JsonError {
 public:
  using JsonError::JsonError;
};

class Json;
using JsonArray = std::vector<Json>;
/// Members in insertion order (JSON objects are small here; linear lookup).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::boolean), bool_(b) {}
  Json(double d) : type_(Type::number), num_(d) {}
  Json(int i) : type_(Type::number), num_(i) {}
  Json(long i) : type_(Type::number), num_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : type_(Type::number), num_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::string), str_(s) {}
  Json(std::string s) : type_(Type::string), str_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::array), arr_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::object), obj_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::null; }
  bool is_bool() const { return type_ == Type::boolean; }
  bool is_number() const { return type_ == Type::number; }
  bool is_string() const { return type_ == Type::string; }
  bool is_array() const { return type_ == Type::array; }
  bool is_object() const { return type_ == Type::object; }

  bool as_bool() const {
    require(Type::boolean);
    return bool_;
  }
  double as_double() const {
    require(Type::number);
    return num_;
  }
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const {
    require(Type::string);
    return str_;
  }
  const JsonArray& as_array() const {
    require(Type::array);
    return arr_;
  }
  JsonArray& as_array() {
    require(Type::array);
    return arr_;
  }
  const JsonObject& as_object() const {
    require(Type::object);
    return obj_;
  }

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key) {
    return const_cast<Json*>(std::as_const(*this).find(key));
  }
  /// Object member access; throws JsonError when absent.
  const Json& at(const std::string& key) const;
  /// Presence test for object members.
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  /// Sets (or replaces) an object member, preserving first-set order.
  Json& set(const std::string& key, Json value);
  /// Appends an array element.
  void push_back(Json value) {
    require(Type::array);
    arr_.push_back(std::move(value));
  }

  /// Serialise.  indent < 0: compact single line; indent >= 0: pretty with
  /// that many spaces per level.  Number formatting is locale-independent
  /// and shortest-round-trip, so output is byte-deterministic.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; trailing non-whitespace is an error.
  /// Throws JsonError with 1-based line/column on malformed input.
  static Json parse(const std::string& text);

 private:
  void require(Type t) const;
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Canonical serialisation for content addressing: compact (indent -1)
/// with object members recursively sorted by key bytes, so two documents
/// that differ only in member order hash identically.  dump() itself stays
/// order-preserving — artifacts keep their authored layout.
std::string canonical_dump(const Json& value);

/// Reads a whole file and parses it; throws JsonError (parse) or
/// std::runtime_error (I/O).
Json read_json_file(const std::string& path);

/// Writes `value.dump(indent)` plus a trailing newline; throws
/// std::runtime_error on I/O failure.
void write_json_file(const std::string& path, const Json& value,
                     int indent = 2);

}  // namespace clktune::util
