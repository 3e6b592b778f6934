// Known-bad fixture: a reintroduced StatSet (the shim was removed).
#include "common/stats.h"

namespace mithril {

void
countThings()
{
    StatSet stats;  // line 9: direct-statset
    stats.add("things");
}

} // namespace mithril
