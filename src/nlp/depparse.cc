#include "nlp/depparse.h"

#include <algorithm>

#include "common/strings.h"

namespace raptor::nlp {

namespace {

bool IsNominal(Pos pos) {
  return pos == Pos::kNoun || pos == Pos::kPropn || pos == Pos::kPron ||
         pos == Pos::kNum;
}

bool IsVerbal(Pos pos) { return pos == Pos::kVerb; }

}  // namespace

DepTree::DepTree(std::vector<DepNode> nodes) : nodes_(std::move(nodes)) {
  Reindex();
}

void DepTree::Reindex() {
  root_ = -1;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].head < 0) {
      root_ = static_cast<int>(i);
      break;
    }
  }
}

std::vector<int> DepTree::PathToRoot(int i) const {
  std::vector<int> path;
  int cur = i;
  size_t guard = 0;
  while (cur >= 0 && guard++ <= nodes_.size()) {
    path.push_back(cur);
    cur = nodes_[cur].head;
  }
  return path;
}

int DepTree::Lca(int a, int b) const {
  std::vector<int> pa = PathToRoot(a);
  std::vector<int> pb = PathToRoot(b);
  for (int x : pa) {
    for (int y : pb) {
      if (x == y) return x;
    }
  }
  return -1;
}

namespace {

/// Implements the chunk-then-attach parse. Operates on mutable node array.
class RuleParser {
 public:
  explicit RuleParser(std::vector<DepNode>* nodes) : nodes_(*nodes) {}

  void Parse() {
    n_ = static_cast<int>(nodes_.size());
    if (n_ == 0) return;
    ChunkNounPhrases();
    AttachVerbStructure();
    AttachLeftovers();
  }

 private:
  bool Attached(int i) const { return nodes_[i].head >= 0; }

  void Attach(int child, int head, const char* rel) {
    if (child == head || child < 0 || head < 0) return;
    nodes_[child].head = head;
    nodes_[child].deprel = rel;
  }

  /// Group maximal runs of DET/ADJ/NUM/NOUN/PROPN into noun phrases with a
  /// head-final convention; record the chunk head for each member.
  void ChunkNounPhrases() {
    chunk_head_.assign(n_, -1);
    int i = 0;
    while (i < n_) {
      Pos p = nodes_[i].pos;
      if (!(p == Pos::kDet || p == Pos::kAdj || IsNominal(p))) {
        ++i;
        continue;
      }
      int start = i;
      int last_nominal = -1;
      while (i < n_) {
        Pos q = nodes_[i].pos;
        if (q == Pos::kDet || q == Pos::kAdj || IsNominal(q)) {
          if (IsNominal(q)) last_nominal = i;
          ++i;
        } else {
          break;
        }
      }
      if (last_nominal < 0) continue;  // a bare determiner/adjective run
      int head = last_nominal;
      for (int k = start; k < i; ++k) {
        chunk_head_[k] = head;
        if (k == head) continue;
        Pos q = nodes_[k].pos;
        if (q == Pos::kDet) {
          Attach(k, head, "det");
        } else if (q == Pos::kAdj) {
          Attach(k, head, "amod");
        } else if (q == Pos::kNum) {
          Attach(k, head, "nummod");
        } else if (k < head) {
          Attach(k, head, "compound");
        } else {
          Attach(k, head, "appos");
        }
      }
      chunk_heads_.push_back(head);
    }
  }

  int PrevNonPunct(int i) const {
    for (int k = i - 1; k >= 0; --k) {
      if (nodes_[k].pos != Pos::kPunct) return k;
    }
    return -1;
  }

  int NearestVerbLeft(int i) const {
    for (int k = i - 1; k >= 0; --k) {
      if (IsVerbal(nodes_[k].pos)) return k;
    }
    return -1;
  }

  int NearestChunkHeadLeft(int i) const {
    for (int k = i - 1; k >= 0; --k) {
      if (chunk_head_[k] == k) return k;
    }
    return -1;
  }

  void AttachVerbStructure() {
    std::vector<int> verbs;
    for (int i = 0; i < n_; ++i) {
      if (IsVerbal(nodes_[i].pos)) verbs.push_back(i);
    }
    // A sentence with no main verb: promote an AUX if present.
    if (verbs.empty()) {
      for (int i = 0; i < n_; ++i) {
        if (nodes_[i].pos == Pos::kAux) {
          verbs.push_back(i);
          break;
        }
      }
    }
    if (verbs.empty()) {
      // Nominal sentence: first chunk head (or first token) is the root.
      root_ = chunk_heads_.empty() ? 0 : chunk_heads_[0];
      return;
    }

    // First pass: decide each verb's attachment.
    root_ = -1;
    for (int v : verbs) {
      int prev = PrevNonPunct(v);
      Pos prev_pos = prev >= 0 ? nodes_[prev].pos : Pos::kX;
      std::string prev_lower = prev >= 0 ? ToLower(nodes_[prev].text) : "";
      int left_verb = NearestVerbLeft(v);

      bool is_passive = false;
      // Auxiliaries immediately before (possibly with adverbs between).
      int scan = v - 1;
      while (scan >= 0 && (nodes_[scan].pos == Pos::kAdv ||
                           nodes_[scan].pos == Pos::kAux)) {
        if (nodes_[scan].pos == Pos::kAux) {
          std::string aux_lemma = Lemma(nodes_[scan].text, Pos::kAux);
          bool be_aux = aux_lemma == "be";
          Attach(scan, v, be_aux && EndsWith(nodes_[v].text, "ed")
                              ? "auxpass"
                              : "aux");
          if (be_aux && (EndsWith(nodes_[v].text, "ed") ||
                         EndsWith(ToLower(nodes_[v].text), "en"))) {
            is_passive = true;
          }
        } else {
          Attach(scan, v, "advmod");
        }
        --scan;
      }
      passive_.push_back(is_passive ? v : -1);

      if (prev >= 0 && prev_pos == Pos::kPart && prev_lower == "to" &&
          left_verb >= 0) {
        Attach(prev, v, "mark");
        Attach(v, left_verb, "xcomp");
      } else if (prev >= 0 && prev_pos == Pos::kAdp && left_verb >= 0 &&
                 EndsWith(ToLower(nodes_[v].text), "ing")) {
        // "by using X": the gerund complements the preposition.
        Attach(prev, left_verb, "prep");
        Attach(v, prev, "pcomp");
      } else if (prev >= 0 && prev_pos == Pos::kCconj && left_verb >= 0) {
        Attach(prev, v, "cc");
        Attach(v, left_verb, "conj");
      } else if (prev >= 0 && chunk_head_[prev] == prev &&
                 EndsWith(ToLower(nodes_[v].text), "ing")) {
        // Gerund directly after a noun modifies it: "the process X reading
        // from Y".
        Attach(v, prev, "acl");
      } else if (prev >= 0 && prev_pos == Pos::kSconj) {
        // Relative clause: attaches to the nearest noun before the SCONJ.
        Attach(prev, v, "mark");
        int noun = NearestChunkHeadLeft(prev);
        if (noun >= 0) {
          Attach(v, noun, "relcl");
        } else if (left_verb >= 0) {
          Attach(v, left_verb, "advcl");
        }
      } else if (root_ < 0) {
        root_ = v;  // main verb
      } else if (left_verb >= 0) {
        Attach(v, left_verb, "conj");
      }
    }
    if (root_ < 0) {
      // Every verb got attached (e.g. a lone acl gerund): the root is the
      // top of the tree reachable from the first verb.
      int cur = verbs[0];
      int guard = 0;
      while (nodes_[cur].head >= 0 && guard++ <= n_) cur = nodes_[cur].head;
      root_ = cur;
    }

    // Second pass: subjects and right-side dependents per verb.
    for (int v : verbs) AttachArguments(v);

    // Leading prepositional phrases ("As a first step, ..."): attach any
    // unattached preposition to the root verb, its object to it.
    for (int i = 0; i < n_; ++i) {
      if (nodes_[i].pos == Pos::kAdp && !Attached(i) && i != root_) {
        Attach(i, root_, "prep");
        for (int k = i + 1; k < n_; ++k) {
          if (chunk_head_[k] == k && !Attached(k)) {
            Attach(k, i, "pobj");
            break;
          }
          if (IsVerbal(nodes_[k].pos) || nodes_[k].pos == Pos::kAdp) break;
        }
      }
    }
  }

  bool IsPassive(int v) const {
    return std::find(passive_.begin(), passive_.end(), v) != passive_.end();
  }

  void AttachArguments(int v) {
    // Subject: nearest unattached chunk head to the left. Verbs attached as
    // acl take their semantic subject from their head noun, so they get no
    // nsubj edge (which would form a cycle).
    if (nodes_[v].deprel != "acl") {
      int subj = -1;
      for (int k = v - 1; k >= 0; --k) {
        if (IsVerbal(nodes_[k].pos)) break;  // crossed into previous clause
        if (chunk_head_[k] == k && !Attached(k) && k != nodes_[v].head) {
          subj = k;
          break;
        }
      }
      if (subj >= 0) {
        Attach(subj, v, IsPassive(v) ? "nsubjpass" : "nsubj");
      }
    }

    // Right side: objects, prepositional phrases, adverbs until the next
    // verb or clause boundary.
    bool have_dobj = false;
    int last_object = -1;
    for (int k = v + 1; k < n_; ++k) {
      if (IsVerbal(nodes_[k].pos) || nodes_[k].pos == Pos::kAux ||
          nodes_[k].pos == Pos::kSconj) {
        break;
      }
      if (nodes_[k].pos == Pos::kPart) break;  // "to" introduces an xcomp
      // A comma ends this verb's argument span (the next clause owns what
      // follows; its own verb pass will claim it).
      if (nodes_[k].pos == Pos::kPunct && nodes_[k].text == ",") break;
      if (Attached(k) && chunk_head_[k] != k) continue;
      if (nodes_[k].pos == Pos::kAdp) {
        if (Attached(k)) continue;
        const char* rel =
            IsPassive(v) && ToLower(nodes_[k].text) == "by" ? "agent" : "prep";
        Attach(k, v, rel);
        // Its object: the next chunk head.
        for (int m = k + 1; m < n_; ++m) {
          if (chunk_head_[m] == m && !Attached(m)) {
            Attach(m, k, "pobj");
            last_object = m;
            k = m;
            break;
          }
          if (IsVerbal(nodes_[m].pos) || nodes_[m].pos == Pos::kAdp) {
            k = m - 1;
            break;
          }
        }
        continue;
      }
      if (nodes_[k].pos == Pos::kAdv && !Attached(k)) {
        Attach(k, v, "advmod");
        continue;
      }
      if (nodes_[k].pos == Pos::kCconj && !Attached(k) && last_object >= 0) {
        // Object conjunction: "reads X and Y".
        for (int m = k + 1; m < n_; ++m) {
          if (chunk_head_[m] == m && !Attached(m)) {
            Attach(k, m, "cc");
            Attach(m, last_object, "conj");
            last_object = m;
            k = m;
            break;
          }
          if (IsVerbal(nodes_[m].pos)) break;
        }
        continue;
      }
      if (chunk_head_[k] == k && !Attached(k)) {
        if (!have_dobj) {
          Attach(k, v, "dobj");
          have_dobj = true;
          last_object = k;
        } else {
          Attach(k, last_object >= 0 ? last_object : v, "appos");
          last_object = k;
        }
      }
    }
  }

  void AttachLeftovers() {
    for (int i = 0; i < n_; ++i) {
      if (i == root_) {
        nodes_[i].head = -1;
        nodes_[i].deprel = "root";
        continue;
      }
      if (!Attached(i)) {
        Attach(i, root_, nodes_[i].pos == Pos::kPunct ? "punct" : "dep");
      }
    }
    // Break any accidental cycles (defensive; rules should not create any).
    for (int i = 0; i < n_; ++i) {
      int cur = i;
      int steps = 0;
      while (cur >= 0 && steps++ <= n_) cur = nodes_[cur].head;
      if (steps > n_) {
        nodes_[i].head = root_ == i ? -1 : root_;
        nodes_[i].deprel = "dep";
      }
    }
  }

  std::vector<DepNode>& nodes_;
  int n_ = 0;
  int root_ = 0;
  std::vector<int> chunk_head_;
  std::vector<int> chunk_heads_;
  std::vector<int> passive_;
};

}  // namespace

DepTree ParseDependency(const std::vector<Token>& tokens,
                        const std::vector<Pos>& tags) {
  std::vector<DepNode> nodes;
  nodes.reserve(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    DepNode n;
    n.text = tokens[i].text;
    n.pos = tags[i];
    n.lemma = Lemma(n.text, n.pos);
    n.begin = tokens[i].begin;
    n.end = tokens[i].end;
    nodes.push_back(std::move(n));
  }
  RuleParser parser(&nodes);
  parser.Parse();
  return DepTree(std::move(nodes));
}

}  // namespace raptor::nlp
