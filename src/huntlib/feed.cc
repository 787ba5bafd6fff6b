#include "huntlib/feed.h"

#include <utility>

#include "nlp/ioc.h"

namespace raptor::huntlib {

namespace {

/// A recognized IOC of `have` can fill a slot declared as `want`: exact
/// type match, except file-path slots absorb every file-ish recognition.
bool IocFillsSlot(nlp::IocType want, nlp::IocType have) {
  if (want == have) return true;
  auto fileish = [](nlp::IocType t) {
    return t == nlp::IocType::kFilepath || t == nlp::IocType::kWinFilepath ||
           t == nlp::IocType::kFilename;
  };
  return fileish(want) && fileish(have);
}

HuntSpec SpecForTechnique(const Technique& t,
                          const std::map<std::string, std::string>& params,
                          const std::string& tenant,
                          const service::StandingOptions& standing) {
  HuntSpec spec;
  spec.name = t.id + " " + t.name;
  spec.technique_id = t.id;
  spec.request.text = Instantiate(t, params);
  spec.request.dialect = t.dialect;
  spec.request.tenant = tenant;
  spec.standing = standing;
  return spec;
}

}  // namespace

Result<HuntSpec> HuntLibrary::FromTechnique(
    std::string_view technique_id,
    const std::map<std::string, std::string>& params,
    const std::string& tenant) const {
  const Technique* t = FindTechnique(technique_id);
  if (t == nullptr) {
    return Status::NotFound("unknown technique: " + std::string(technique_id));
  }
  return SpecForTechnique(*t, params, tenant, options_.standing);
}

std::vector<HuntSpec> HuntLibrary::FromIocFeed(std::string_view feed_text,
                                               const std::string& tenant) const {
  std::vector<nlp::IocMatch> iocs = nlp::RecognizeIocs(feed_text);
  std::vector<HuntSpec> out;
  for (const Technique& t : AllTechniques()) {
    std::map<std::string, std::string> params;
    for (const IocSlot& slot : t.ioc_slots) {
      for (const nlp::IocMatch& ioc : iocs) {
        if (IocFillsSlot(slot.type, ioc.type)) {
          params.emplace(slot.param, ioc.text);
          break;
        }
      }
    }
    if (params.empty()) continue;  // no indicator speaks to this technique
    out.push_back(SpecForTechnique(t, params, tenant, options_.standing));
  }
  return out;
}

Result<HuntSpec> HuntLibrary::SynthesizeFromCti(
    std::string_view cti_text, const std::string& source_tag,
    const std::string& tenant) const {
  extraction::ThreatBehaviorExtractor extractor(options_.extraction);
  auto extracted = extractor.Extract(cti_text);
  if (!extracted.ok()) return extracted.status();

  synthesis::QuerySynthesizer synthesizer(options_.synthesis);
  auto synthesized = synthesizer.Synthesize(extracted.value().graph);
  if (!synthesized.ok()) return synthesized.status();

  HuntSpec spec;
  spec.name = source_tag.empty() ? std::string("cti") : "cti:" + source_tag;
  // Reports routinely tag behaviors with ATT&CK ids; the first one the
  // catalog knows supplies technique metadata for the synthesized hunt.
  for (const std::string& id : extraction::FindAttackTechniqueIds(cti_text)) {
    if (FindTechnique(id) != nullptr) {
      spec.technique_id = id;
      spec.name += " [" + id + "]";
      break;
    }
  }
  spec.request.text = synthesized.value().tbql_text;
  spec.request.dialect = service::QueryDialect::kTbql;
  spec.request.tenant = tenant;
  spec.standing = options_.standing;
  return spec;
}

service::StandingHandle HuntLibrary::Attach(service::HuntService* service,
                                            HuntSpec spec,
                                            service::StandingSink sink) {
  service::StandingHandle handle =
      service->SubmitStanding(spec.request, std::move(sink), spec.standing);
  attachments_.push_back({std::move(spec), handle});
  return handle;
}

size_t HuntLibrary::AttachCatalog(service::HuntService* service,
                                  const std::string& tenant,
                                  service::StandingSink sink) {
  size_t attached = 0;
  for (const Technique& t : AllTechniques()) {
    Attach(service, SpecForTechnique(t, {}, tenant, options_.standing), sink);
    ++attached;
  }
  return attached;
}

void HuntLibrary::DetachAll() {
  for (Attachment& a : attachments_) {
    if (a.handle.valid()) a.handle.Cancel();
  }
  attachments_.clear();
}

}  // namespace raptor::huntlib
