// Output digests pinned per GEMM kernel ISA.
//
// fp32 training results depend on the kernel's summation order, so a digest
// is only comparable on the ISA that produced it.  A digest covers every
// output field except wall-clock timings.
#pragma once

#include <string>

namespace perfbench {

/// The pinned digest (16 hex digits) for `key` on `isa`, or nullptr when
/// this ISA has no pinned table.  Throws if the ISA has a table that lacks
/// the key: every input set the benchmark can generate is pinned.
[[nodiscard]] const char* pinned_digest(const std::string& isa, const std::string& key);

}  // namespace perfbench
