/**
 * @file
 * Separable input-first switch allocator with speculation support
 * (Peh & Dally, HPCA 2001 — the paper's baseline router, §3.A).
 *
 * Stage 1 arbitrates among the VCs of each input port; stage 2 arbitrates
 * among input-port winners for each output port. Non-speculative requests
 * (packets that already hold an output VC) beat speculative ones (heads
 * whose VA is still in flight); a speculative winner whose VA failed
 * wastes its crossbar slot, which is the speculation penalty.
 */

#ifndef NOC_ROUTER_SWITCH_ALLOCATOR_HPP
#define NOC_ROUTER_SWITCH_ALLOCATOR_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "router/arbiter.hpp"

namespace noc {

/** One switch grant. */
struct SaGrant
{
    PortId inPort = kInvalidPort;
    VcId inVc = kInvalidVc;
    PortId outPort = kInvalidPort;
    bool speculative = false;
};

class SwitchAllocator
{
  public:
    /** Port and VC counts are each at most 64 (one mask word). */
    SwitchAllocator(int num_in_ports, int num_out_ports, int num_vcs)
        : inputArbs_(num_in_ports, RoundRobinArbiter(num_vcs)),
          outputArbs_(num_out_ports, RoundRobinArbiter(num_in_ports))
    {
    }

    /**
     * Run one allocation round over the occupied input VCs: bit v of
     * `occ[in]` is set ⇔ VC v of input `in` holds a flit, and bit `in`
     * of `ports` ⇔ occ[in] != 0.
     *
     * `request(in, vc, speculative)` is called for every occupied VC in
     * ascending (in, vc) order and returns the output port the VC
     * requests, or kInvalidPort for no request; it sets `speculative`
     * for a head whose VA has not succeeded yet. `grant(const SaGrant &)`
     * then receives at most one grant per input and per output port, in
     * ascending output order. An input or output without requests does
     * not rotate its arbiter.
     */
    template <typename Request, typename Grant>
    void allocate(const std::uint64_t *occ, std::uint64_t ports,
                  Request &&request, Grant &&grant);

  private:
    std::vector<RoundRobinArbiter> inputArbs_;   ///< per input, over VCs
    std::vector<RoundRobinArbiter> outputArbs_;  ///< per output, over inputs
};

template <typename Request, typename Grant>
void
SwitchAllocator::allocate(const std::uint64_t *occ, std::uint64_t ports,
                          Request &&request, Grant &&grant)
{
    // Per output port: the inputs whose stage-1 winner requests it, and
    // the non-speculative subset. Entries are valid only for bits of
    // `outs`, so nothing is cleared up front.
    std::uint64_t out_cand[64];
    std::uint64_t out_nonspec[64];
    std::uint64_t outs = 0;
    std::uint64_t spec_winners = 0;   ///< inputs whose winner speculates
    VcId win_vc[64];

    // Stage 1, right after each input's requests are collected: its
    // arbitration depends on nothing else, so interleaving is exact.
    for (; ports != 0; ports &= ports - 1) {
        const PortId in = lowestSetBit(ports);
        std::uint64_t vc_reqs = 0;
        std::uint64_t vc_spec = 0;
        PortId req_out[64];
        for (std::uint64_t m = occ[in]; m != 0; m &= m - 1) {
            const VcId v = lowestSetBit(m);
            bool speculative = false;
            const PortId o = request(in, v, speculative);
            if (o == kInvalidPort)
                continue;
            vc_reqs |= 1ull << v;
            vc_spec |= static_cast<std::uint64_t>(speculative) << v;
            req_out[v] = o;
        }
        if (vc_reqs == 0)
            continue;
        const VcId v = inputArbs_[in].grant(vc_reqs);
        const PortId o = req_out[v];
        win_vc[in] = v;
        if ((outs >> o & 1) == 0) {
            outs |= 1ull << o;
            out_cand[o] = 0;
            out_nonspec[o] = 0;
        }
        out_cand[o] |= 1ull << in;
        if (vc_spec >> v & 1)
            spec_winners |= 1ull << in;
        else
            out_nonspec[o] |= 1ull << in;
    }

    // Stage 2: one input per requested output, in ascending order.
    for (; outs != 0; outs &= outs - 1) {
        const PortId o = lowestSetBit(outs);
        const std::uint64_t eligible =
            out_nonspec[o] != 0 ? out_nonspec[o] : out_cand[o];
        const PortId in = outputArbs_[o].grant(eligible);
        grant(SaGrant{in, win_vc[in], o, (spec_winners >> in & 1) != 0});
    }
}

} // namespace noc

#endif // NOC_ROUTER_SWITCH_ALLOCATOR_HPP
