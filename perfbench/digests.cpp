#include "digests.hpp"

#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

using Table = std::map<std::string, std::string>;

/// Pinned on an AMD EPYC host (AVX2 kernels, gcc 12.2, -O3 -march=native).
/// To pin another ISA, run every input set once with TDFM_KERNEL=<isa>
/// and copy the lines of .bench_build/runs/recorded-digests.txt here.
const std::map<std::string, Table>& tables() {
  static const std::map<std::string, Table> t = {
      {"avx2",
       {
           {"campaign/seed=1", "2bd77dba0eb47d9d"},
           {"campaign/seed=2", "44d7494d80af0307"},
           {"campaign/seed=3", "d1811ac8d58012c4"},
           {"campaign/seed=4", "ab33685d30e7f6ad"},
           {"campaign/seed=5", "04a1ac1e2ad87516"},
           {"campaign/seed=6", "ba8a3e1f4f133061"},
           {"campaign/seed=7", "f66ac7ef86f9a2ea"},
           {"campaign/seed=8", "2ee78b28d6dc2257"},
           {"online/story=7", "4f7eae641d15692e"},
           {"online/story=11", "6b0efbd736c2f5d0"},
           {"online/story=13", "179744ac25e636cf"},
           {"online/story=14", "61fceceaf479a631"},
           {"online/story=16", "84cbad75dd7206f8"},
           {"online/story=21", "32c43bee11c3d893"},
           {"online/story=25", "0912fd4e93b42f6b"},
           {"online/story=27", "7718a8524bc60406"},
       }},
  };
  return t;
}

}  // namespace

const char* pinned_digest(const std::string& isa, const std::string& key) {
  const auto table = tables().find(isa);
  if (table == tables().end()) return nullptr;
  const auto it = table->second.find(key);
  if (it == table->second.end()) {
    throw std::runtime_error("no pinned digest for " + isa + "/" + key);
  }
  return it->second.c_str();
}

}  // namespace perfbench
