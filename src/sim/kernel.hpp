/**
 * @file
 * Simulation-kernel resolution: which router core a configuration will
 * run on, answered without building a network.
 *
 * The router layer selects a kernel per router at construction
 * (router/kernels.hpp): a devirtualized FastPolicy instantiation when
 * the (scheme x routing x topology) point is covered and the config is
 * eligible, else the generic path. This facade replays that selection
 * for a SimConfig so tools can report (noctool, benches) or assert
 * (parity tests) the kernel choice before paying for a run.
 */

#ifndef NOC_SIM_KERNEL_HPP
#define NOC_SIM_KERNEL_HPP

#include <string>

#include "common/config.hpp"

namespace noc {

/** The kernel a configuration resolves to. */
struct KernelInfo
{
    /// Kernel display name: "generic", or "<routing>/<scheme>" for a
    /// specialized core (e.g. "mesh-dor/pseudo-sb").
    std::string name;
    /// True when a devirtualized specialized kernel was selected for
    /// every router of the topology.
    bool specialized = false;
};

/**
 * Resolve the kernel `cfg` will run on. Builds the topology and routing
 * objects (cheap — no routers, NIs, or buffers) and queries the kernel
 * factory exactly as Router's constructor does; the choice depends on
 * the config and the routing type only, so every router agrees.
 */
KernelInfo resolveKernel(const SimConfig &cfg);

} // namespace noc

#endif // NOC_SIM_KERNEL_HPP
