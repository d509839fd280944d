#include "router/kernels.hpp"

#include <typeinfo>

#include "routing/dor.hpp"
#include "routing/o1turn.hpp"
#include "routing/torus_dor.hpp"

namespace noc {

const RouterOps *
selectRouterOps(const SimConfig &cfg, const RoutingAlgorithm &routing)
{
    if (cfg.kernel != KernelChoice::Auto)
        return nullptr;
    // Fault and churn campaigns perturb delivery and routing in ways
    // only the generic path models (and wrap the routing object, which
    // would also fail the typeid test below).
    if (!cfg.faultSpec.empty() || !cfg.churnSpec.empty() ||
        cfg.dropCreditEvery != 0)
        return nullptr;
    if (cfg.scheme == Scheme::Evc)
        return nullptr;

    const std::type_info &t = typeid(routing);
    if (t == typeid(MeshDor))
        return meshDorKernel(cfg.scheme);
    if (t == typeid(O1TurnRouting))
        return o1turnKernel(cfg.scheme);
    if (t == typeid(TorusDor))
        return torusDorKernel(cfg.scheme);
    return nullptr;
}

} // namespace noc
