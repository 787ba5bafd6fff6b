#include "case_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "durable.h"

namespace perfbench {

namespace cases = raptor::cases;

std::vector<cases::AttackCase> SeededCases(uint64_t seed) {
  std::vector<cases::AttackCase> out = cases::AllCases();
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].benign.seed = SubSeed(seed, 1000 + i);
    out[i].seed = SubSeed(seed, 2000 + i);
  }
  return out;
}

CaseStore BuildCaseStore(const Args& args,
                         const std::vector<cases::AttackCase>& case_list,
                         bool keep_logs) {
  CaseStore store;
  double rss0 = CurrentRssBytes();
  std::vector<std::vector<raptor::audit::SyscallRecord>> logs(case_list.size());
  {
    std::vector<std::thread> gen;
    for (size_t t = 0; t < 4; ++t) {
      gen.emplace_back([&, t] {
        for (size_t i = t; i < case_list.size(); i += 4) {
          logs[i] = cases::BuildCaseLog(case_list[i]);
        }
      });
    }
    for (std::thread& th : gen) th.join();
  }
  store.data_dir = FreshDir(args, "case_store");
  raptor::persist::DurabilityOptions durability;
  durability.data_dir = store.data_dir;
  store.tr = OpenDurable(durability);
  for (const auto& log : logs) {
    store.records += log.size();
    raptor::Status st = store.tr->IngestSyscalls(log);
    if (!st.ok()) {
      std::printf("case ingest failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  if (!store.tr->Checkpoint().ok()) {
    std::printf("set-up checkpoint failed\n");
    std::exit(1);
  }
  store.events = store.tr->store()->events().size();
  if (keep_logs) {
    store.logs = std::move(logs);
  } else {
    logs.clear();
    logs.shrink_to_fit();
  }
  store.rss_delta_bytes = CurrentRssBytes() - rss0;
  return store;
}

void CaseStoreLayers(CaseStore* store, LayerMetrics* layers, Report* report) {
  layers->Set("store.rss_bytes_per_event",
              store->rss_delta_bytes /
                  static_cast<double>(std::max<size_t>(store->events, 1)));
  raptor::persist::DurabilityOptions durability;
  durability.data_dir = store->data_dir;
  PersistLayers(&store->tr, durability, store->logs, store->records, layers,
                report);
}

}  // namespace perfbench
