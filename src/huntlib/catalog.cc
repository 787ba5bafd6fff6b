#include "huntlib/catalog.h"

#include <algorithm>

#include "storage/graphdb/cypher_parser.h"
#include "storage/relational/sql_parser.h"
#include "tbql/parser.h"

namespace raptor::huntlib {

namespace {

using service::QueryDialect;

std::string Attack(const std::string& id) {
  // Sub-techniques ("T1053.003") link under their parent page.
  std::string base = id.substr(0, id.find('.'));
  return "https://attack.mitre.org/techniques/" + base + "/";
}

Technique Make(std::string id, std::string name, Tactic tactic,
               Severity severity, QueryDialect dialect,
               std::string query_template, std::vector<IocSlot> slots) {
  Technique t;
  t.id = std::move(id);
  t.name = std::move(name);
  t.tactic = tactic;
  t.severity = severity;
  t.dialect = dialect;
  t.query_template = std::move(query_template);
  t.ioc_slots = std::move(slots);
  t.references = {Attack(t.id)};
  return t;
}

/// The string-literal syntax of `dialect`'s query text.
const LexSpec& DialectLex(QueryDialect dialect) {
  switch (dialect) {
    case QueryDialect::kTbql: return tbql::kTbqlLex;
    case QueryDialect::kCypher: return graphdb::kCypherLex;
    case QueryDialect::kSql: return sql::kSqlLex;
  }
  return tbql::kTbqlLex;
}

std::vector<Technique> BuildCatalog() {
  using nlp::IocType;
  std::vector<Technique> out;

  // --- Execution -----------------------------------------------------------
  out.push_back(Make(
      "T1059", "Command and Scripting Interpreter", Tactic::kExecution,
      Severity::kMedium, QueryDialect::kCypher,
      "MATCH (p:proc)-[e:start]->(q:proc) "
      "WHERE q.exename CONTAINS '{interpreter}' "
      "RETURN p.exename, q.exename",
      {{"interpreter", IocType::kFilename}}));
  out.push_back(Make(
      "T1204", "User Execution: Malicious File", Tactic::kExecution,
      Severity::kHigh, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] execute file f[\"%{file}%\"] "
      "return distinct p, f",
      {{"proc", IocType::kFilename}, {"file", IocType::kFilepath}}));

  // --- Persistence ---------------------------------------------------------
  out.push_back(Make(
      "T1053", "Scheduled Task/Job: Cron", Tactic::kPersistence,
      Severity::kMedium, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] write file f[\"%cron%\"] return distinct p, f",
      {{"proc", IocType::kFilename}}));
  out.push_back(Make(
      "T1547", "Boot or Logon Autostart Execution", Tactic::kPersistence,
      Severity::kHigh, QueryDialect::kCypher,
      "MATCH (p:proc)-[e:write]->(f:file) "
      "WHERE f.name CONTAINS '/etc/init' "
      "AND p.exename CONTAINS '{proc}' "
      "RETURN p.exename, f.name",
      {{"proc", IocType::kFilename}}));

  // --- Privilege escalation ------------------------------------------------
  out.push_back(Make(
      "T1548", "Abuse Elevation Control Mechanism",
      Tactic::kPrivilegeEscalation, Severity::kHigh, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] start proc q[\"%sudo%\"] return distinct p, q",
      {{"proc", IocType::kFilename}}));

  // --- Credential access ---------------------------------------------------
  out.push_back(Make(
      "T1003", "OS Credential Dumping", Tactic::kCredentialAccess,
      Severity::kCritical, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] read file f[\"%/etc/shadow%\"] "
      "return distinct p, f",
      {{"proc", IocType::kFilename}}));

  // --- Discovery -----------------------------------------------------------
  out.push_back(Make(
      "T1083", "File and Directory Discovery", Tactic::kDiscovery,
      Severity::kLow, QueryDialect::kCypher,
      "MATCH (p:proc)-[e:read]->(f:file) "
      "WHERE f.name CONTAINS '/proc/' "
      "AND p.exename CONTAINS '{proc}' "
      "RETURN DISTINCT p.exename",
      {{"proc", IocType::kFilename}}));
  out.push_back(Make(
      "T1087", "Account Discovery", Tactic::kDiscovery, Severity::kLow,
      QueryDialect::kCypher,
      "MATCH (p:proc)-[e:read]->(f:file) "
      "WHERE f.name CONTAINS '/etc/passwd' "
      "AND p.exename CONTAINS '{proc}' "
      "RETURN p.exename, f.name",
      {{"proc", IocType::kFilename}}));

  // --- Lateral movement ----------------------------------------------------
  out.push_back(Make(
      "T1021", "Remote Services", Tactic::kLateralMovement, Severity::kHigh,
      QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] connect ip i[\"%{ip}%\"] "
      "return distinct p, i.dstip",
      {{"proc", IocType::kFilename}, {"ip", IocType::kIp}}));

  // --- Collection ----------------------------------------------------------
  out.push_back(Make(
      "T1560", "Archive Collected Data", Tactic::kCollection,
      Severity::kMedium, QueryDialect::kTbql,
      "proc p[\"%{archiver}%\"] read file f[\"%{file}%\"] as e1 "
      "proc p write file g[\"%.tar%\"] as e2 "
      "with e1 before e2 return distinct p, f, g",
      {{"archiver", IocType::kFilename}, {"file", IocType::kFilepath}}));
  out.push_back(Make(
      "T1005", "Data from Local System", Tactic::kCollection,
      Severity::kMedium, QueryDialect::kCypher,
      "MATCH (p:proc)-[e1:read]->(f:file), (p)-[e2:write]->(g:file) "
      "WHERE f.name CONTAINS '{file}' "
      "RETURN p.exename, f.name, g.name",
      {{"file", IocType::kFilepath}}));

  // --- Command and control -------------------------------------------------
  out.push_back(Make(
      "T1071", "Application Layer Protocol", Tactic::kCommandAndControl,
      Severity::kHigh, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] send ip i[\"%{ip}%\"] as e1 "
      "proc p recv ip j[\"%{ip}%\"] as e2 "
      "return distinct p",
      {{"proc", IocType::kFilename}, {"ip", IocType::kIp}}));
  out.push_back(Make(
      "T1105", "Ingress Tool Transfer", Tactic::kCommandAndControl,
      Severity::kCritical, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] recv ip i[\"%{ip}%\"] as e1 "
      "proc p write file f[\"%{file}%\"] as e2 "
      "with e1 before e2 return distinct p, f",
      {{"proc", IocType::kFilename},
       {"ip", IocType::kIp},
       {"file", IocType::kFilepath}}));

  // --- Exfiltration --------------------------------------------------------
  out.push_back(Make(
      "T1041", "Exfiltration Over C2 Channel", Tactic::kExfiltration,
      Severity::kCritical, QueryDialect::kTbql,
      "proc p[\"%{proc}%\"] read file f[\"%{file}%\"] as e1 "
      "proc p send ip i[\"%{ip}%\"] as e2 "
      "with e1 before e2 return distinct p, f, i.dstip",
      {{"proc", IocType::kFilename},
       {"file", IocType::kFilepath},
       {"ip", IocType::kIp}}));

  std::sort(out.begin(), out.end(),
            [](const Technique& a, const Technique& b) { return a.id < b.id; });
  return out;
}

}  // namespace

const char* TacticName(Tactic tactic) {
  switch (tactic) {
    case Tactic::kExecution: return "execution";
    case Tactic::kPersistence: return "persistence";
    case Tactic::kPrivilegeEscalation: return "privilege-escalation";
    case Tactic::kCredentialAccess: return "credential-access";
    case Tactic::kDiscovery: return "discovery";
    case Tactic::kLateralMovement: return "lateral-movement";
    case Tactic::kCollection: return "collection";
    case Tactic::kCommandAndControl: return "command-and-control";
    case Tactic::kExfiltration: return "exfiltration";
  }
  return "unknown";
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kLow: return "low";
    case Severity::kMedium: return "medium";
    case Severity::kHigh: return "high";
    case Severity::kCritical: return "critical";
  }
  return "unknown";
}

const std::vector<Technique>& AllTechniques() {
  static const std::vector<Technique>* catalog =
      new std::vector<Technique>(BuildCatalog());
  return *catalog;
}

const Technique* FindTechnique(std::string_view id) {
  for (const Technique& t : AllTechniques()) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

std::vector<const Technique*> TechniquesForTactic(Tactic tactic) {
  std::vector<const Technique*> out;
  for (const Technique& t : AllTechniques()) {
    if (t.tactic == tactic) out.push_back(&t);
  }
  return out;
}

std::string Instantiate(const Technique& technique,
                        const std::map<std::string, std::string>& params) {
  const std::string& tmpl = technique.query_template;
  std::string out;
  out.reserve(tmpl.size());
  size_t pos = 0;
  while (pos < tmpl.size()) {
    size_t open = tmpl.find('{', pos);
    if (open == std::string::npos) {
      out.append(tmpl, pos, std::string::npos);
      break;
    }
    size_t close = tmpl.find('}', open);
    if (close == std::string::npos) {
      out.append(tmpl, pos, std::string::npos);
      break;
    }
    out.append(tmpl, pos, open - pos);
    std::string key = tmpl.substr(open + 1, close - open - 1);
    auto it = params.find(key);
    // Every slot sits inside a string literal of the template's dialect:
    // escaping the value keeps it there. Missing parameters substitute
    // empty: TBQL templates wrap slots in %-wildcards and Cypher slots sit
    // inside CONTAINS, so an empty value means "match anything" either way.
    if (it != params.end()) {
      out += EscapeString(DialectLex(technique.dialect), it->second);
    }
    pos = close + 1;
  }
  return out;
}

}  // namespace raptor::huntlib
