/// @file
/// Introspection CLI for the simulator's instrumentation inventory.
///
///   cxlalloc_inspect --list-points
///
/// prints every registered injection point (common/points.h) as
/// `id<TAB>kind<TAB>name<TAB>site`, one per line, sorted by id. Kinds are
/// `crash` (where a *thread* can die mid-protocol), `fault` (which
/// *infrastructure* failures a storm can inject: edge down/flap, NMP
/// stall/delay, host kill; see pod/faults.h) and `defect` (deliberately
/// broken protocol variants the explorer's oracles must catch). Sweep
/// scripts iterate this instead of hard-coding point numbers, so adding a
/// point to any layer automatically widens every sweep.

#include <cstring>
#include <iostream>

#include "common/points.h"
#include "cxlalloc/migrate.h"
#include "cxlalloc/recovery.h"
#include "memento/recoverable_map.h"
#include "memento/recoverable_queue.h"
#include "pod/faults.h"

namespace {

int
list_points()
{
    // Pull in every layer's points without building heaps.
    cxlalloc::register_crash_points();
    cxlalloc::register_migrate_crash_points();
    memento::register_queue_crash_points();
    memento::register_map_crash_points();
    pod::register_fault_points();

    for (const cxlcommon::PointInfo& point :
         cxlcommon::PointRegistry::instance().all()) {
        std::cout << point.id << '\t' << cxlcommon::to_string(point.kind)
                  << '\t' << point.name << '\t' << point.site << '\n';
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list-points") == 0) {
        return list_points();
    }
    std::cerr << "usage: " << argv[0] << " --list-points\n";
    return argc == 2 && std::strcmp(argv[1], "--help") == 0 ? 0 : 2;
}
