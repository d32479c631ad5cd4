#include "region/region_table.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "obs/obs.h"
#include "scm/scm.h"

namespace mnemosyne::region {

namespace {

struct TableCounters {
    obs::Counter pmaps{"region.pmaps"};
    obs::Counter punmaps{"region.punmaps"};
    obs::Counter pstatic_vars{"region.pstatic_vars"};
};

TableCounters &
tctrs()
{
    static TableCounters c;
    return c;
}

std::atomic<RegionLayer *> gLayer{nullptr};
std::atomic<uint64_t> gGeneration{0};

size_t
alignUp(size_t v, size_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

RegionLayer *
currentRegionLayer()
{
    return gLayer.load(std::memory_order_acquire);
}

void
setCurrentRegionLayer(RegionLayer *rl)
{
    gLayer.store(rl, std::memory_order_release);
    gGeneration.fetch_add(1, std::memory_order_acq_rel);
}

uint64_t
regionLayerGeneration()
{
    return gGeneration.load(std::memory_order_acquire);
}

std::string
RegionLayer::slotFileName(size_t slot)
{
    return "dyn_" + std::to_string(slot) + ".pregion";
}

RegionLayer::RegionLayer(RegionManager &mgr, size_t static_region_bytes)
    : mgr_(mgr)
{
    static_region_bytes =
        alignUp(std::max(static_region_bytes, sizeof(StaticHeader) + 4096),
                kPageSize);
    void *base = mgr_.mapFile("static.pregion", static_region_bytes,
                              mgr_.firstUsableVa());
    hdr_ = static_cast<StaticHeader *>(base);
    varArea_ = reinterpret_cast<uint8_t *>(hdr_ + 1);
    varAreaBytes_ = static_region_bytes - sizeof(StaticHeader);

    if (hdr_->magic != kMagic) {
        formatStaticRegion(static_region_bytes);
        firstRun_ = true;
    } else {
        if (hdr_->staticBytes != static_region_bytes) {
            throw std::runtime_error(
                "RegionLayer: static region size changed across restarts");
        }
        recoverRegions();
    }
}

RegionLayer::~RegionLayer()
{
    if (currentRegionLayer() == this)
        setCurrentRegionLayer(nullptr);
}

void
RegionLayer::formatStaticRegion(size_t static_bytes)
{
    auto &c = mgr_.scm();
    // The backing file is fresh (zero); only the header words need
    // explicit initialization.
    StaticHeader h{};
    h.magic = kMagic;
    h.staticBytes = static_bytes;
    h.nextVa = alignUp(mgr_.firstUsableVa() + static_bytes, kPageSize);
    h.varBump = 0;
    c.wtstore(&hdr_->staticBytes, &h.staticBytes, sizeof(uint64_t) * 3);
    std::vector<uint8_t> zero(sizeof(StaticHeader) -
                              offsetof(StaticHeader, table));
    c.wtstore(hdr_->table, zero.data(), zero.size());
    c.fence();
    // Magic is written last: a crash mid-format leaves an unformatted
    // region that the next run formats again.
    c.wtstoreT(&hdr_->magic, h.magic);
    c.fence();
}

bool
RegionLayer::mappedNow(uintptr_t addr) const
{
    const auto base = reinterpret_cast<uintptr_t>(hdr_);
    if (addr >= base && addr + sizeof(void *) <= base + hdr_->staticBytes)
        return true;
    for (const auto &e : hdr_->table) {
        if (e.state == 2 && addr >= e.addr &&
            addr + sizeof(void *) <= e.addr + e.len)
            return true;
    }
    return false;
}

void
RegionLayer::reconcileSlot(RegionEntry &e, bool expect_mapped)
{
    // Only dereference the recorded cell if it lies in memory that is
    // mapped right now (the static region or a valid dynamic region) —
    // a cell inside a region that is itself being destroyed is gone
    // along with the data it pointed to.
    if (e.slotAddr == 0 || !mappedNow(e.slotAddr))
        return;
    auto &c = mgr_.scm();
    auto **slot = reinterpret_cast<void **>(e.slotAddr);
    auto *region_addr = reinterpret_cast<void *>(e.addr);
    if (expect_mapped) {
        // Redo the publish: valid region, but the crash dropped the
        // pointer write — without this the region would be unreachable
        // (leaked) even though the table still maps it.
        if (*slot != region_addr) {
            c.wtstoreT<void *>(slot, region_addr);
            c.fence();
        }
    } else {
        // Undo the publish: the region is being destroyed; clear the
        // cell only if it still points at it, so it cannot dangle.
        if (*slot == region_addr) {
            c.wtstoreT<void *>(slot, static_cast<void *>(nullptr));
            c.fence();
        }
    }
}

void
RegionLayer::recoverRegions()
{
    auto &c = mgr_.scm();
    // Pass 1: re-map every valid region, so client pointer cells that
    // live inside dynamic regions are addressable during pass 2.
    for (size_t i = 0; i < std::size(hdr_->table); ++i) {
        RegionEntry &e = hdr_->table[i];
        if (e.state == 2) {
            mgr_.mapFile(slotFileName(i), size_t(e.len),
                         uintptr_t(e.addr));
        }
    }
    // Pass 2: replay the intention log and reconcile publication slots.
    for (size_t i = 0; i < std::size(hdr_->table); ++i) {
        RegionEntry &e = hdr_->table[i];
        if (e.state == 1 || e.state == 3) {
            // Partially created (1) or partially destroyed (3) region:
            // roll backward/forward to "no region", nullifying the
            // client's cell first so it cannot dangle.
            reconcileSlot(e, /*expect_mapped=*/false);
            mgr_.destroyFile(slotFileName(i), 0, 0);
            c.wtstoreT(&e.state, uint64_t(0));
            c.fence();
        } else if (e.state == 2) {
            // Valid region whose publish write may have been torn off
            // by the crash: redo it from the logged slot address.
            reconcileSlot(e, /*expect_mapped=*/true);
        }
    }
    for (auto &v : hdr_->vars) {
        if (v.state == 1) {
            // Partially created variable: reclaim the slot (the data
            // hole in the bump area is leaked, which is safe).
            c.wtstoreT(&v.state, uint64_t(0));
            c.fence();
        }
    }
}

void *
RegionLayer::pmap(void **persistent_slot, size_t len, uint64_t flags)
{
    std::lock_guard<std::mutex> g(mu_);
    len = alignUp(len, kPageSize);
    auto &c = mgr_.scm();

    size_t slot = std::size(hdr_->table);
    for (size_t i = 0; i < std::size(hdr_->table); ++i) {
        if (hdr_->table[i].state == 0) {
            slot = i;
            break;
        }
    }
    if (slot == std::size(hdr_->table))
        throw std::runtime_error("RegionLayer: region table full");

    const uint64_t addr = hdr_->nextVa;
    if (addr + len > mgr_.vaBase() + mgr_.vaReserve())
        throw std::runtime_error("RegionLayer: persistent address space "
                                 "exhausted");
    c.wtstoreT(&hdr_->nextVa, addr + len);

    // Intention-log protocol: record the entry as in-progress (with the
    // client's pointer cell, so recovery can reconcile the publication
    // write), create the backing file, then durably mark it valid
    // (section 4.2).
    RegionEntry e{addr, len, flags, 1,
                  uint64_t(reinterpret_cast<uintptr_t>(persistent_slot))};
    c.wtstore(&hdr_->table[slot], &e, sizeof(e));
    c.fence();

    // A stale backing file from a crashed punmap must not leak old data
    // into a fresh region.
    mgr_.destroyFile(slotFileName(slot), 0, 0);
    void *mapped = mgr_.mapFile(slotFileName(slot), len, uintptr_t(addr));

    c.wtstoreT(&hdr_->table[slot].state, uint64_t(2));
    c.fence();

    if (persistent_slot) {
        assert(isPersistent(persistent_slot) &&
               "pmap target pointer must live in persistent memory");
        c.wtstoreT<void *>(persistent_slot, mapped);
        c.fence();
    }
    tctrs().pmaps.add(1);
    return mapped;
}

void
RegionLayer::punmap(void *addr, size_t len)
{
    std::lock_guard<std::mutex> g(mu_);
    auto &c = mgr_.scm();
    for (size_t i = 0; i < std::size(hdr_->table); ++i) {
        RegionEntry &e = hdr_->table[i];
        if (e.state == 2 && e.addr == reinterpret_cast<uintptr_t>(addr)) {
            assert(len == e.len && "partial punmap is not supported");
            (void)len;
            // Destruction intent first: once durable, recovery rolls the
            // punmap forward (nullify the client's cell, destroy the
            // file, free the entry) no matter where the crash lands.
            c.wtstoreT(&e.state, uint64_t(3));
            c.fence();
            if (e.slotAddr && mappedNow(e.slotAddr)) {
                auto **slot = reinterpret_cast<void **>(e.slotAddr);
                if (*slot == addr) {
                    c.wtstoreT<void *>(slot, static_cast<void *>(nullptr));
                    c.fence();
                }
            }
            mgr_.destroyFile(slotFileName(i), uintptr_t(e.addr),
                             size_t(e.len));
            c.wtstoreT(&e.state, uint64_t(0));
            c.fence();
            tctrs().punmaps.add(1);
            return;
        }
    }
    throw std::runtime_error("punmap: no such region");
}

void *
RegionLayer::pstaticVar(const std::string &name, size_t size,
                        const void *init)
{
    std::lock_guard<std::mutex> g(mu_);
    assert(name.size() < sizeof(PVarEntry::name));
    auto &c = mgr_.scm();

    size_t free_slot = std::size(hdr_->vars);
    for (size_t i = 0; i < std::size(hdr_->vars); ++i) {
        PVarEntry &v = hdr_->vars[i];
        if (v.state == 2 && name == v.name) {
            if (v.size != size) {
                throw std::runtime_error(
                    "pstatic variable '" + name + "' changed size");
            }
            return varArea_ + v.offset;
        }
        if (v.state == 0 && free_slot == std::size(hdr_->vars))
            free_slot = i;
    }
    if (free_slot == std::size(hdr_->vars))
        throw std::runtime_error("RegionLayer: pstatic table full");

    const uint64_t offset = alignUp(hdr_->varBump, 64);
    if (offset + size > varAreaBytes_)
        throw std::runtime_error("RegionLayer: static region full");

    PVarEntry v{};
    std::strncpy(v.name, name.c_str(), sizeof(v.name) - 1);
    v.offset = offset;
    v.size = size;
    v.state = 1;
    c.wtstoreT(&hdr_->varBump, offset + size);
    c.wtstore(&hdr_->vars[free_slot], &v, sizeof(v));
    c.fence();

    // Initialize once, then durably publish (paper: persistent static
    // variables are initialized when the program first runs).
    if (init) {
        c.wtstore(varArea_ + offset, init, size);
    } else {
        std::vector<uint8_t> zero(size, 0);
        c.wtstore(varArea_ + offset, zero.data(), size);
    }
    c.fence();
    c.wtstoreT(&hdr_->vars[free_slot].state, uint64_t(2));
    c.fence();
    tctrs().pstatic_vars.add(1);
    return varArea_ + offset;
}

std::vector<RegionLayer::RegionInfo>
RegionLayer::regions() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<RegionInfo> out;
    for (size_t i = 0; i < std::size(hdr_->table); ++i) {
        const RegionEntry &e = hdr_->table[i];
        if (e.state == 2) {
            out.push_back(RegionInfo{reinterpret_cast<void *>(e.addr),
                                     size_t(e.len), e.flags, i});
        }
    }
    return out;
}

RegionLayer::RegionInfo
RegionLayer::findByFlags(uint64_t flags) const
{
    for (const auto &r : regions()) {
        if (r.flags == flags)
            return r;
    }
    return RegionInfo{nullptr, 0, 0, 0};
}

} // namespace mnemosyne::region
