// Seeded violation for cdslint's level-fork rule: a pricer that forks on the
// SIMD level instead of passing it to the cds::simd column call.
#include "cds/vector_kernel.hpp"

namespace fixture {

void tabulate(cdsflow::cds::simd::Level level) {
  if (level != cdsflow::cds::simd::Level::kScalar) {  // the seeded violation
    return;
  }
}

}  // namespace fixture
