/**
 * @file
 * Router-kernel factory: maps a configuration to a specialized
 * RouterOps table, or nullptr for the generic path.
 *
 * Specialization matrix (each cell is one FastPolicy instantiation,
 * compiled in its family's kernels_*.cpp translation unit):
 *
 *                    baseline pseudo pseudo-s pseudo-b pseudo-sb  evc
 *   mesh-dor (XY/YX)    ✓       ✓       ✓        ✓        ✓        —
 *   o1turn              ✓       ✓       ✓        ✓        ✓        —
 *   torus-dor           ✓       ✓       ✓        ✓        ✓        —
 *
 * mesh-dor covers Mesh and CMesh (same Mesh routing class), at any VC
 * count the router supports. Everything else — EVC, MECS, FBFLY, fault
 * and churn plans, kernel=generic — falls back to the generic kernel.
 * Selection is by exact dynamic type (typeid), so wrapped routings (e.g.
 * the fault layer's perturbed routing) automatically miss and stay
 * generic.
 */

#ifndef NOC_ROUTER_KERNELS_HPP
#define NOC_ROUTER_KERNELS_HPP

#include "common/config.hpp"

namespace noc {

struct RouterOps;
class RoutingAlgorithm;

/** Per-routing-family kernel lookups (kernels_<family>.cpp). Return
 *  nullptr for schemes the family does not specialize. */
const RouterOps *meshDorKernel(Scheme scheme);
const RouterOps *o1turnKernel(Scheme scheme);
const RouterOps *torusDorKernel(Scheme scheme);

/**
 * Select the specialized kernel for a configuration, or nullptr if it
 * must run generic. The choice is the same for every router.
 */
const RouterOps *selectRouterOps(const SimConfig &cfg,
                                 const RoutingAlgorithm &routing);

} // namespace noc

#endif // NOC_ROUTER_KERNELS_HPP
