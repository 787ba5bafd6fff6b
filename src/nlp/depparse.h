// Rule-based dependency parser. Substitutes spaCy's pretrained statistical
// parser (Step 4 of Algorithm 1): after IOC Protection, OSCTI prose is
// plain English with a narrow syntactic repertoire (SVO clauses, purpose
// infinitives, "by"-gerunds, relative clauses, conjunction chains), which a
// deterministic chunk-then-attach parser covers well. The parser is a
// general component: it has no knowledge of IOCs or the security domain.
//
// Produced relations (Universal-Dependencies-flavoured): root, nsubj,
// nsubjpass, dobj, pobj, prep, agent, aux, auxpass, mark, xcomp, pcomp,
// acl, relcl, conj, cc, det, amod, nummod, compound, advmod, punct, dep.
#pragma once

#include <string>
#include <vector>

#include "nlp/pos.h"
#include "nlp/tokenizer.h"

namespace raptor::nlp {

struct DepNode {
  std::string text;
  std::string lemma;
  Pos pos = Pos::kX;
  int head = -1;          // index of head node; -1 for the root
  std::string deprel = "dep";
  size_t begin = 0;       // byte offsets in the parsed sentence
  size_t end = 0;
};

class DepTree {
 public:
  DepTree() = default;
  explicit DepTree(std::vector<DepNode> nodes);

  const std::vector<DepNode>& nodes() const { return nodes_; }
  std::vector<DepNode>& mutable_nodes() { return nodes_; }
  size_t size() const { return nodes_.size(); }
  const DepNode& node(size_t i) const { return nodes_[i]; }

  int root() const { return root_; }

  /// Path from node i up to the root (inclusive of i and root).
  std::vector<int> PathToRoot(int i) const;

  /// Lowest common ancestor of a and b (may be a or b), or -1 on forest
  /// corruption.
  int Lca(int a, int b) const;

  /// Recompute root after head edits.
  void Reindex();

 private:
  std::vector<DepNode> nodes_;
  int root_ = -1;
};

/// Parse one tagged sentence into a dependency tree.
DepTree ParseDependency(const std::vector<Token>& tokens,
                        const std::vector<Pos>& tags);

}  // namespace raptor::nlp
