// Built-in hunt technique catalog, organized by MITRE ATT&CK tactic.
//
// Each technique is a parameterizable TBQL or Cypher template over the
// audit data model (proc / file / ip entities, the Table III operations)
// plus metadata: the ATT&CK technique id, tactic, severity, and reference
// links. Templates carry `{param}` placeholders; IOC slots declare which
// parameters an IOC feed can fill (e.g. a recognized file path slots into
// `{file}`). Instantiate() substitutes parameters — unfilled ones become
// empty, which the %-wrapped TBQL slots and Cypher CONTAINS slots both
// read as match-anything, so every template instantiates into a runnable
// hunt even with no IOCs at all.
//
// The catalog is the standing-hunt playbook ATHAFI describes: a curated
// library continuously executed against collected data, from which
// HuntLibrary (feed.h) stamps out hundreds of standing hunts per tenant.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nlp/ioc.h"
#include "service/hunt_service.h"

namespace raptor::huntlib {

/// MITRE ATT&CK enterprise tactics covered by the catalog.
enum class Tactic {
  kExecution = 0,
  kPersistence,
  kPrivilegeEscalation,
  kCredentialAccess,
  kDiscovery,
  kLateralMovement,
  kCollection,
  kCommandAndControl,
  kExfiltration,
};

const char* TacticName(Tactic tactic);

enum class Severity { kLow = 0, kMedium, kHigh, kCritical };

const char* SeverityName(Severity severity);

/// A template parameter an IOC feed can fill: a recognized IOC of `type`
/// substitutes into `{param}`.
struct IocSlot {
  std::string param;
  nlp::IocType type = nlp::IocType::kFilepath;
};

struct Technique {
  std::string id;    // ATT&CK technique id, e.g. "T1021"
  std::string name;  // ATT&CK technique name
  Tactic tactic = Tactic::kExecution;
  Severity severity = Severity::kMedium;
  service::QueryDialect dialect = service::QueryDialect::kTbql;
  /// Query text with `{param}` placeholders.
  std::string query_template;
  /// Parameters fillable from recognized IOCs.
  std::vector<IocSlot> ioc_slots;
  /// Reference links (ATT&CK pages, reports).
  std::vector<std::string> references;
};

/// The built-in catalog, ordered by technique id.
const std::vector<Technique>& AllTechniques();

/// Look up a technique by ATT&CK id ("T1021"); nullptr when unknown.
const Technique* FindTechnique(std::string_view id);

/// All catalog techniques under one tactic.
std::vector<const Technique*> TechniquesForTactic(Tactic tactic);

/// Substitute `{param}` placeholders in the technique's template, each
/// value escaped as the body of the dialect's string literal the slot sits
/// in. Missing parameters substitute empty (match anything); unknown keys
/// in `params` are ignored. The result always parses under the technique's
/// dialect, whatever quotes or backslashes a value holds.
std::string Instantiate(const Technique& technique,
                        const std::map<std::string, std::string>& params = {});

}  // namespace raptor::huntlib
