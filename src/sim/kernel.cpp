#include "sim/kernel.hpp"

#include "network/network.hpp"
#include "router/kernels.hpp"
#include "router/router_pipeline.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"

namespace noc {

KernelInfo
resolveKernel(const SimConfig &cfg)
{
    const std::unique_ptr<Topology> topo = makeTopology(cfg);
    const std::unique_ptr<RoutingAlgorithm> routing =
        makeRouting(cfg.routing, *topo);
    // Network wraps `routing` in a FaultRouting adapter when the fault
    // plan kills links; no need to replay that here — a non-empty
    // faultSpec already disqualifies specialization inside the factory.

    const RouterOps *ops = selectRouterOps(cfg, *routing);
    const RouterOps &k = ops != nullptr ? *ops : routerOpsFor<GenericPolicy>();
    return {k.name, k.specialized};
}

} // namespace noc
