#include "frontier/local_worklists.hpp"

#include <omp.h>

namespace thrifty::frontier {

int LocalWorklists::support_thread_id() { return omp_get_thread_num(); }

void LocalWorklists::zero_marks(Marks& marks) {
  const std::size_t n = marks.size();
#pragma omp parallel for schedule(static)
  for (std::size_t v = 0; v < n; ++v) {
    marks[v] = 0;
  }
}

}  // namespace thrifty::frontier
