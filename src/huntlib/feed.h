// Synthesizer bridge: CTI inputs -> concrete standing-hunt specs -> the
// service.
//
// Three input roads produce HuntSpecs:
//   * FromTechnique — instantiate one catalog template with explicit
//     parameters (the CLI's `hunt --technique T1021`).
//   * FromIocFeed — run IOC recognition (nlp/ioc.h) over a feed of raw
//     indicators and stamp out every catalog technique with a fillable
//     IOC slot, one spec per technique.
//   * SynthesizeFromCti — drive the paper's full nlp -> extraction ->
//     synthesis pipeline over unstructured CTI report text into a TBQL
//     query, tagging it with any ATT&CK technique ids the report mentions.
//
// HuntLibrary also owns the fleet lifecycle: Attach() registers specs as
// standing hunts via HuntService::SubmitStanding and keeps the handles, so
// hundreds of hunts per tenant detach in one call. Not thread-safe; use
// one HuntLibrary per managing thread.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "extraction/extractor.h"
#include "huntlib/catalog.h"
#include "service/hunt_service.h"
#include "synthesis/synthesizer.h"

namespace raptor::huntlib {

/// A concrete, runnable standing-hunt specification.
struct HuntSpec {
  /// Human label: "T1021 Remote Services" or "cti:<source tag>".
  std::string name;
  /// Catalog technique id when the spec derives from one; empty for
  /// free-form synthesized hunts with no recognized technique tag.
  std::string technique_id;
  service::HuntRequest request;
  service::StandingOptions standing;
};

struct HuntLibraryOptions {
  extraction::ExtractionOptions extraction;
  synthesis::SynthesisOptions synthesis;
  /// Standing-hunt options stamped onto every produced spec.
  service::StandingOptions standing;
};

class HuntLibrary {
 public:
  explicit HuntLibrary(HuntLibraryOptions options = {})
      : options_(std::move(options)) {}

  /// Instantiate catalog technique `technique_id` for `tenant`.
  /// NotFound for an unknown id.
  Result<HuntSpec> FromTechnique(
      std::string_view technique_id,
      const std::map<std::string, std::string>& params = {},
      const std::string& tenant = "") const;

  /// Recognize IOCs in `feed_text` and instantiate every catalog
  /// technique that has at least one slot an IOC fills (first matching
  /// IOC per slot; file-path slots accept Linux paths, Windows paths, and
  /// bare file names).
  std::vector<HuntSpec> FromIocFeed(std::string_view feed_text,
                                    const std::string& tenant = "") const;

  /// CTI report text -> threat behavior graph -> synthesized TBQL standing
  /// hunt. `source_tag` labels the spec; technique metadata attaches when
  /// the report mentions a catalog ATT&CK id. Fails when extraction or
  /// synthesis finds no usable behavior.
  Result<HuntSpec> SynthesizeFromCti(std::string_view cti_text,
                                     const std::string& source_tag = "",
                                     const std::string& tenant = "") const;

  /// Register one spec as a standing hunt and remember the handle.
  service::StandingHandle Attach(service::HuntService* service, HuntSpec spec,
                                 service::StandingSink sink = {});

  /// Stamp the entire catalog onto `tenant` (default parameters) and
  /// attach every spec; returns the number attached.
  size_t AttachCatalog(service::HuntService* service,
                       const std::string& tenant,
                       service::StandingSink sink = {});

  /// Cancel every attached standing hunt and drop the handles.
  void DetachAll();

  struct Attachment {
    HuntSpec spec;
    service::StandingHandle handle;
  };
  const std::vector<Attachment>& attachments() const { return attachments_; }

 private:
  HuntLibraryOptions options_;
  std::vector<Attachment> attachments_;
};

}  // namespace raptor::huntlib
