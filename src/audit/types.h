// System auditing data model (Sec III-A of the paper).
//
// System entities are files, processes and network connections (Table II);
// system events are interactions <subject, operation, object> between two
// entities (Table III), parsed from kernel-level syscall records (Table I).
//
// Unique identification follows the paper: a process is identified by
// (executable name, PID), a file by its absolute path, and a network
// connection by the 5-tuple <srcip, srcport, dstip, dstport, protocol>.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace raptor::audit {

using EntityId = uint64_t;
using EventId = uint64_t;
/// Microseconds since the epoch.
using Timestamp = int64_t;

constexpr EntityId kInvalidEntity = 0;

enum class EntityType {
  kFile = 0,
  kProcess = 1,
  kNetwork = 2,
};

/// Operation type of a system event (Table III "Operation" attribute plus
/// the network operations used by TBQL queries).
enum class EventOp {
  kRead = 0,
  kWrite,
  kExecute,
  kStart,
  kEnd,
  kRename,
  kConnect,
  kSend,
  kRecv,
};

constexpr int kNumEventOps = 9;

const char* EntityTypeName(EntityType type);
const char* EventOpName(EventOp op);
std::optional<EventOp> EventOpFromName(std::string_view name);

/// A system entity with the representative attributes of Table II. Fields
/// not applicable to the entity's type are left empty / zero.
struct SystemEntity {
  EntityId id = kInvalidEntity;
  EntityType type = EntityType::kFile;

  // File attributes. `name` holds the absolute path (the paper's default
  // "name" attribute matches full paths, e.g. f1["%/etc/passwd%"]).
  std::string name;
  std::string path;

  // Process attributes.
  long long pid = 0;
  std::string exename;
  std::string cmd;

  // Network connection attributes.
  std::string srcip;
  int srcport = 0;
  std::string dstip;
  int dstport = 0;
  std::string protocol;

  // Shared attributes.
  std::string user;
  std::string group;

  /// Generic attribute accessor by TBQL attribute name (e.g. "name",
  /// "exename", "pid", "dstip"). Returns empty string for unknown or
  /// inapplicable attributes.
  std::string Attribute(std::string_view attr) const;

  /// The paper's default attribute for each entity type: "name" for files,
  /// "exename" for processes, "dstip" for network connections.
  static std::string_view DefaultAttribute(EntityType type);

  /// Unique key string used for interning (path / exename+pid / 5-tuple).
  std::string UniqueKey() const;
};

/// A system event: <subject_entity, operation, object_entity> with the
/// representative attributes of Table III.
struct SystemEvent {
  EventId id = 0;
  EntityId subject = kInvalidEntity;  // always a process
  EntityId object = kInvalidEntity;
  EntityType object_type = EntityType::kFile;
  EventOp op = EventOp::kRead;
  Timestamp start_time = 0;
  Timestamp end_time = 0;
  long long amount = 0;   // bytes moved (Data Amount)
  int failure_code = 0;   // 0 on success
};

/// Interning store for system entities. Guarantees one EntityId per unique
/// entity key, so events can be reliably related to entities (the paper
/// notes that failing to distinguish entities corrupts the analysis).
class EntityStore {
 public:
  EntityId InternFile(std::string_view path, std::string_view user = "",
                      std::string_view group = "");
  EntityId InternProcess(std::string_view exename, long long pid,
                         std::string_view cmd = "", std::string_view user = "",
                         std::string_view group = "");
  EntityId InternNetwork(std::string_view srcip, int srcport,
                         std::string_view dstip, int dstport,
                         std::string_view protocol);

  /// Intern a fully-populated entity by its UniqueKey(), ignoring its
  /// incoming id (batch ingestion remaps foreign ParsedLogs through this).
  EntityId Intern(SystemEntity entity);

  /// Precondition: id was returned by one of the Intern* methods.
  const SystemEntity& Get(EntityId id) const { return entities_[id - 1]; }

  /// All entities, ordered by id.
  const std::vector<SystemEntity>& entities() const { return entities_; }

  size_t size() const { return entities_.size(); }

 private:
  std::vector<SystemEntity> entities_;
  std::unordered_map<std::string, EntityId> by_key_;
};

/// Result of parsing an audit log: interned entities plus the event stream
/// (ordered by start_time).
struct ParsedLog {
  EntityStore entities;
  std::vector<SystemEvent> events;
};

}  // namespace raptor::audit
