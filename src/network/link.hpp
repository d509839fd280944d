/**
 * @file
 * Link/wire delay modelling: a calendar ring buffer of in-flight flits
 * and credits. Wires are pipelined — any number of items may be in
 * flight; per-cycle injection limits are enforced by the routers/NIs.
 */

#ifndef NOC_NETWORK_LINK_HPP
#define NOC_NETWORK_LINK_HPP

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"
#include "telemetry/telemetry.hpp"

namespace noc {

/** One in-flight delivery. */
struct LinkEvent
{
    enum class Kind {
        FlitToRouter,
        FlitToNi,
        CreditToRouter,
        CreditToNi,
        LinkAck,        ///< fault layer: link-level ACK/NACK to the sender
    };

    Kind kind = Kind::FlitToRouter;
    RouterId router = kInvalidRouter;  ///< FlitToRouter / CreditToRouter / LinkAck
    PortId inPort = kInvalidPort;      ///< FlitToRouter
    NodeId node = kInvalidNode;        ///< *ToNi
    VcId vc = kInvalidVc;              ///< CreditToNi
    Flit flit;                         ///< flit events
    Credit credit;                     ///< CreditToRouter

    // --- LinkAck only (fault layer) ---
    int ackLink = -1;                  ///< protected-link index
    std::uint32_t ackSeq = 0;          ///< cumulative ACK / requested NACK seq
    bool ackOk = false;                ///< true = ACK, false = NACK
};

/**
 * Calendar queue over a bounded delay horizon, generic in its payload.
 * schedule() places events at absolute cycles within `horizon` cycles
 * of the present; forEachAt() walks the bucket for the current cycle
 * and releaseAt() recycles it. The serial network runs one ring of
 * LinkEvents; each shard of the partitioned path runs one ring of its
 * ordering-tagged events (network.cpp, ShardRuntime), with the same
 * horizon.
 *
 * Storage is a single slot pool threaded into per-bucket FIFO lists.
 * Released slots go onto a free list and are reused by later
 * schedule() calls, so once the pool has grown to the peak number of
 * in-flight events the ring allocates nothing, and its memory is that
 * peak (slots()) rather than a high-water allocation per bucket.
 */
template <typename Payload>
class EventRing
{
  public:
    explicit EventRing(int horizon)
        : head_(static_cast<std::size_t>(horizon) + 2, kNil),
          tail_(static_cast<std::size_t>(horizon) + 2, kNil)
    {
        NOC_ASSERT(horizon >= 1, "event horizon must be positive");
        pool_.reserve(head_.size() * 4);
    }

    /**
     * Attach a telemetry sink (LinkEvent rings only): every flit placed
     * on a wire emits a LinkTraverse event at its departure cycle,
     * tagged with the destination router / input port and the wire
     * delay in `arg`.
     */
    void setTelemetry(TelemetrySink *sink) { telem_ = sink; }

    void
    schedule(Cycle now, Cycle when, const Payload &event)
    {
        NOC_ASSERT(when > now, "events must be scheduled in the future");
        NOC_ASSERT(when - now < head_.size(),
                   "event beyond the ring horizon");
#if NOC_TELEMETRY_ENABLED
        if constexpr (std::is_same_v<Payload, LinkEvent>) {
            if (telem_ && event.kind == LinkEvent::Kind::FlitToRouter) {
                TelemetryEvent ev;
                ev.cycle = now;
                ev.router = event.router;
                ev.port = static_cast<std::int16_t>(event.inPort);
                ev.vc = static_cast<std::int8_t>(event.flit.vc);
                ev.cls = TelemetryEventClass::LinkTraverse;
                ev.arg = static_cast<std::uint8_t>(
                    when - now > 255 ? 255 : when - now);
                telem_->record(ev);
            }
        }
#endif
        insertAt(when, event);
    }

    /**
     * Append an event to cycle `when`'s bucket, bypassing the
     * future-only assertion and telemetry of schedule(). The sharded
     * path uses it for boundary events drained at a window barrier and
     * to hand its pending calendars back to the serial ring at the end
     * of a run, which includes events due exactly at `now`. The caller
     * guarantees `when` is within the horizon of the current cycle.
     */
    void
    insertAt(Cycle when, const Payload &event)
    {
        const std::int32_t slot = acquireSlot();
        pool_[static_cast<std::size_t>(slot)].ev = event;
        const std::size_t b = when % head_.size();
        if (tail_[b] == kNil)
            head_[b] = slot;
        else
            pool_[static_cast<std::size_t>(tail_[b])].next = slot;
        tail_[b] = slot;
    }

    /**
     * Zero-copy iteration over cycle `now`'s events in insertion order,
     * without consuming them; pair with releaseAt(now) once all passes
     * are done. `fn` may call schedule() (events land at future cycles,
     * never in this bucket), so iteration is index-based — the pool may
     * grow mid-walk, and `fn` must not hold its argument across a
     * schedule() call.
     */
    template <typename Fn>
    void
    forEachAt(Cycle now, Fn &&fn)
    {
        const std::size_t b = now % head_.size();
        for (std::int32_t s = head_[b]; s != kNil;
             s = pool_[static_cast<std::size_t>(s)].next)
            fn(static_cast<const Payload &>(
                pool_[static_cast<std::size_t>(s)].ev));
    }

    /** Recycle cycle `now`'s slots after forEachAt() passes. */
    void
    releaseAt(Cycle now)
    {
        const std::size_t b = now % head_.size();
        for (std::int32_t s = head_[b]; s != kNil;) {
            Slot &slot = pool_[static_cast<std::size_t>(s)];
            const std::int32_t next = slot.next;
            slot.next = freeHead_;
            freeHead_ = s;
            s = next;
        }
        head_[b] = tail_[b] = kNil;
    }

    bool
    empty() const
    {
        for (const std::int32_t h : head_) {
            if (h != kNil)
                return false;
        }
        return true;
    }

    /** Buckets in the calendar: the horizon plus two cycles of slack. */
    std::size_t buckets() const { return head_.size(); }

    /**
     * Slots in the pool: the peak number of events held at once since
     * construction. A deterministic memory counter — it depends only on
     * the sequence of inserts and releases, never on timing.
     */
    std::size_t slots() const { return pool_.size(); }

  private:
    static constexpr std::int32_t kNil = -1;

    struct Slot
    {
        Payload ev;
        std::int32_t next = kNil;
    };

    std::int32_t
    acquireSlot()
    {
        if (freeHead_ != kNil) {
            const std::int32_t slot = freeHead_;
            freeHead_ = pool_[static_cast<std::size_t>(slot)].next;
            pool_[static_cast<std::size_t>(slot)].next = kNil;
            return slot;
        }
        pool_.emplace_back();
        return static_cast<std::int32_t>(pool_.size() - 1);
    }

    std::vector<Slot> pool_;
    std::vector<std::int32_t> head_;   ///< per-bucket FIFO head
    std::vector<std::int32_t> tail_;   ///< per-bucket FIFO tail
    std::int32_t freeHead_ = kNil;     ///< recycled-slot list
    TelemetrySink *telem_ = nullptr;
};

} // namespace noc

#endif // NOC_NETWORK_LINK_HPP
