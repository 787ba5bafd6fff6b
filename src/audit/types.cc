#include "audit/types.h"

#include "common/strings.h"

namespace raptor::audit {

const char* EntityTypeName(EntityType type) {
  switch (type) {
    case EntityType::kFile: return "file";
    case EntityType::kProcess: return "proc";
    case EntityType::kNetwork: return "ip";
  }
  return "?";
}

const char* EventOpName(EventOp op) {
  switch (op) {
    case EventOp::kRead: return "read";
    case EventOp::kWrite: return "write";
    case EventOp::kExecute: return "execute";
    case EventOp::kStart: return "start";
    case EventOp::kEnd: return "end";
    case EventOp::kRename: return "rename";
    case EventOp::kConnect: return "connect";
    case EventOp::kSend: return "send";
    case EventOp::kRecv: return "recv";
  }
  return "?";
}

std::optional<EventOp> EventOpFromName(std::string_view name) {
  std::string n = ToLower(name);
  if (n == "read") return EventOp::kRead;
  if (n == "write") return EventOp::kWrite;
  if (n == "execute") return EventOp::kExecute;
  if (n == "start") return EventOp::kStart;
  if (n == "end") return EventOp::kEnd;
  if (n == "rename") return EventOp::kRename;
  if (n == "connect") return EventOp::kConnect;
  if (n == "send") return EventOp::kSend;
  if (n == "recv") return EventOp::kRecv;
  return std::nullopt;
}

std::string SystemEntity::Attribute(std::string_view attr) const {
  if (attr == "name") return name;
  if (attr == "path") return path;
  if (attr == "pid") return pid ? std::to_string(pid) : std::string();
  if (attr == "exename") return exename;
  if (attr == "cmd") return cmd;
  if (attr == "srcip") return srcip;
  if (attr == "srcport") return srcport ? std::to_string(srcport) : std::string();
  if (attr == "dstip") return dstip;
  if (attr == "dstport") return dstport ? std::to_string(dstport) : std::string();
  if (attr == "protocol") return protocol;
  if (attr == "user") return user;
  if (attr == "group") return group;
  return std::string();
}

std::string_view SystemEntity::DefaultAttribute(EntityType type) {
  switch (type) {
    case EntityType::kFile: return "name";
    case EntityType::kProcess: return "exename";
    case EntityType::kNetwork: return "dstip";
  }
  return "name";
}

std::string SystemEntity::UniqueKey() const {
  switch (type) {
    case EntityType::kFile:
      return "f:" + name;
    case EntityType::kProcess:
      return "p:" + exename + "#" + std::to_string(pid);
    case EntityType::kNetwork:
      return "n:" + srcip + ":" + std::to_string(srcport) + ">" + dstip + ":" +
             std::to_string(dstport) + "/" + protocol;
  }
  return name;
}

EntityId EntityStore::Intern(SystemEntity entity) {
  std::string key = entity.UniqueKey();
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;
  entity.id = entities_.size() + 1;
  EntityId id = entity.id;
  entities_.push_back(std::move(entity));
  by_key_.emplace(std::move(key), id);
  return id;
}

EntityId EntityStore::InternFile(std::string_view path, std::string_view user,
                                 std::string_view group) {
  SystemEntity e;
  e.type = EntityType::kFile;
  e.name = std::string(path);
  e.path = std::string(path);
  e.user = std::string(user);
  e.group = std::string(group);
  return Intern(std::move(e));
}

EntityId EntityStore::InternProcess(std::string_view exename, long long pid,
                                    std::string_view cmd,
                                    std::string_view user,
                                    std::string_view group) {
  SystemEntity e;
  e.type = EntityType::kProcess;
  e.exename = std::string(exename);
  e.pid = pid;
  e.cmd = std::string(cmd);
  e.user = std::string(user);
  e.group = std::string(group);
  return Intern(std::move(e));
}

EntityId EntityStore::InternNetwork(std::string_view srcip, int srcport,
                                    std::string_view dstip, int dstport,
                                    std::string_view protocol) {
  SystemEntity e;
  e.type = EntityType::kNetwork;
  e.srcip = std::string(srcip);
  e.srcport = srcport;
  e.dstip = std::string(dstip);
  e.dstport = dstport;
  e.protocol = std::string(protocol);
  // The paper's default network attribute is dstip; expose it as `name` too
  // so generic tooling has a printable identifier.
  e.name = e.dstip;
  return Intern(std::move(e));
}

}  // namespace raptor::audit
