#include "region/region_manager.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/obs.h"
#include "obs/stats_registry.h"
#include "scm/scm.h"

namespace mnemosyne::region {

namespace {

struct MetaHeader {
    uint64_t magic;
    uint64_t nFrames;
    uint64_t nFileNames;
    uint64_t reserved;
};

constexpr uint64_t kMetaMagic = 0x4d4e5a4f4e453031ULL; // "MNZONE01"
constexpr size_t kFileNameSlots = 256;

size_t
pagesOf(size_t bytes)
{
    return (bytes + kPageSize - 1) / kPageSize;
}

uint64_t
residentKey(uint64_t file_id, uint64_t page_off)
{
    return (file_id << 40) | page_off;
}

} // namespace

RegionManager::RegionManager(RegionConfig cfg) : cfg_(std::move(cfg))
{
    if (const char *env = std::getenv("MNEMOSYNE_REGION_PATH"))
        cfg_.backing_dir = env;

    reservation_ = mmap(reinterpret_cast<void *>(cfg_.va_base),
                        cfg_.va_reserve, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                            MAP_FIXED_NOREPLACE,
                        -1, 0);
    if (reservation_ == MAP_FAILED) {
        throw std::runtime_error(
            "RegionManager: cannot reserve persistent address range");
    }
    openMetadata();
    bootReconstruct();

    // Zone gauges; duplicate keys from several live managers sum, which
    // matches "total pages faulted / resident in this process".
    statsSourceToken_ =
        obs::StatsRegistry::instance().addSource([this](obs::Sink &sink) {
            const ZoneStats s = zoneStats();
            sink.emit("region.frames_total", uint64_t(s.frames_total));
            sink.emit("region.frames_resident", uint64_t(s.frames_resident));
            sink.emit("region.faults", s.faults);
            sink.emit("region.soft_faults", s.soft_faults);
            sink.emit("region.evictions", s.evictions);
        });
}

RegionManager::~RegionManager()
{
    obs::StatsRegistry::instance().removeSource(statsSourceToken_);
    std::lock_guard<std::mutex> g(mu_);
    for (auto &m : mappings_) {
        msync(reinterpret_cast<void *>(m.addr), m.length, MS_SYNC);
        close(m.fd);
    }
    for (auto &[id, fd] : inodeCache_) {
        (void)id;
        close(fd);
    }
    if (mapTable_)
        msync(reinterpret_cast<void *>(cfg_.va_base), metaBytes_, MS_SYNC);
    if (metaFd_ >= 0)
        close(metaFd_);
    munmap(reservation_, cfg_.va_reserve);
}

std::string
RegionManager::backingPath(const std::string &file_name) const
{
    return cfg_.backing_dir + "/" + file_name;
}

void
RegionManager::openMetadata()
{
    nFrames_ = cfg_.scm_capacity / kPageSize;
    nFileNames_ = kFileNameSlots;
    metaBytes_ = sizeof(MetaHeader) + nFrames_ * sizeof(MapEntry) +
                 nFileNames_ * sizeof(FileNameEntry);
    metaBytes_ = pagesOf(metaBytes_) * kPageSize;

    const std::string path = backingPath("scm_mapping.meta");
    const bool existed = access(path.c_str(), F_OK) == 0;
    metaFd_ = open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (metaFd_ < 0)
        throw std::runtime_error("RegionManager: cannot open " + path);
    if (ftruncate(metaFd_, off_t(metaBytes_)) != 0)
        throw std::runtime_error("RegionManager: cannot size " + path);

    void *meta = mmap(reinterpret_cast<void *>(cfg_.va_base), metaBytes_,
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED,
                      metaFd_, 0);
    if (meta == MAP_FAILED)
        throw std::runtime_error("RegionManager: cannot map metadata");

    auto *hdr = static_cast<MetaHeader *>(meta);
    mapTable_ = reinterpret_cast<MapEntry *>(hdr + 1);
    fileNames_ = reinterpret_cast<FileNameEntry *>(mapTable_ + nFrames_);

    if (!existed || hdr->magic != kMetaMagic) {
        std::memset(meta, 0, metaBytes_);
        MetaHeader h{kMetaMagic, nFrames_, nFileNames_, 0};
        auto &c = scm::ctx();
        c.wtstore(hdr, &h, sizeof(h));
        c.fence();
        c.persistAll();
    } else {
        if (hdr->nFrames != nFrames_) {
            throw std::runtime_error(
                "RegionManager: SCM capacity changed across restarts");
        }
    }
}

size_t
RegionManager::bootReconstruct()
{
    // Drop all volatile descriptors, as an OS boot would.
    descriptors_.clear();
    residentIndex_.clear();
    lru_.clear();
    lruPos_.clear();
    freeFrames_.clear();
    for (auto &[id, fd] : inodeCache_) {
        (void)id;
        close(fd);
    }
    inodeCache_.clear();

    // Scan the persistent mapping table: (i) rebuild the page descriptor
    // for each mapped SCM page, (ii) create an inode for the backing
    // file of every mapping, (iii) free-list the rest (section 4.2).
    for (size_t f = 0; f < nFrames_; ++f) {
        const MapEntry &e = mapTable_[f];
        if (e.used) {
            descriptors_[f] = {e.fileId, e.pageOff};
            residentIndex_[residentKey(e.fileId, e.pageOff)] = f;
            lru_.push_back(f);
            lruPos_[f] = std::prev(lru_.end());
            if (!inodeCache_.count(e.fileId) &&
                e.fileId < nFileNames_ && fileNames_[e.fileId].used) {
                const int fd = open(
                    backingPath(fileNames_[e.fileId].name).c_str(), O_RDWR);
                if (fd >= 0)
                    inodeCache_[e.fileId] = fd;
            }
        } else {
            freeFrames_.push_back(f);
        }
    }
    stats_.frames_total = nFrames_;
    stats_.frames_resident = residentIndex_.size();
    return nFrames_;
}

uint64_t
RegionManager::internFileName(const std::string &name)
{
    assert(name.size() < sizeof(FileNameEntry::name));
    uint64_t free_slot = nFileNames_;
    for (uint64_t i = 0; i < nFileNames_; ++i) {
        if (fileNames_[i].used) {
            if (name == fileNames_[i].name)
                return i;
        } else if (free_slot == nFileNames_) {
            free_slot = i;
        }
    }
    if (free_slot == nFileNames_)
        throw std::runtime_error("RegionManager: file-name table full");

    FileNameEntry e{};
    std::strncpy(e.name, name.c_str(), sizeof(e.name) - 1);
    e.used = 1;
    auto &c = scm::ctx();
    c.wtstore(&fileNames_[free_slot], &e, sizeof(e));
    c.fence();
    return free_slot;
}

RegionManager::Mapping *
RegionManager::findMapping(uintptr_t addr)
{
    for (auto &m : mappings_) {
        if (addr >= m.addr && addr < m.addr + m.length)
            return &m;
    }
    return nullptr;
}

size_t
RegionManager::allocFrame(uint64_t file_id, uint64_t page_off)
{
    if (freeFrames_.empty())
        evictOne();
    assert(!freeFrames_.empty());
    const size_t f = freeFrames_.back();
    freeFrames_.pop_back();

    MapEntry e{1, file_id, page_off};
    scm::ctx().wtstore(&mapTable_[f], &e, sizeof(e));
    descriptors_[f] = {file_id, page_off};
    residentIndex_[residentKey(file_id, page_off)] = f;
    lru_.push_back(f);
    lruPos_[f] = std::prev(lru_.end());
    return f;
}

void
RegionManager::evictOne()
{
    assert(!lru_.empty() && "SCM zone exhausted with nothing to evict");
    const size_t f = lru_.front();
    lru_.pop_front();
    lruPos_.erase(f);

    const auto [file_id, page_off] = descriptors_[f];
    // Write the page back to its file and release the physical memory;
    // the MAP_SHARED mapping transparently reloads it on the next access
    // (a major fault in the real system).
    for (auto &m : mappings_) {
        if (m.fileId != file_id)
            continue;
        const uintptr_t va = m.addr + page_off * kPageSize;
        if (va < m.addr + m.length) {
            msync(reinterpret_cast<void *>(va), kPageSize, MS_SYNC);
            madvise(reinterpret_cast<void *>(va), kPageSize, MADV_DONTNEED);
        }
        break;
    }
    MapEntry e{0, 0, 0};
    scm::ctx().wtstore(&mapTable_[f], &e, sizeof(e));
    descriptors_.erase(f);
    residentIndex_.erase(residentKey(file_id, page_off));
    freeFrames_.push_back(f);
    ++stats_.evictions;
}

void
RegionManager::makeResident(Mapping &m, uintptr_t page_addr, bool initial)
{
    const uint64_t page_off = (page_addr - m.addr) / kPageSize;
    const uint64_t key = residentKey(m.fileId, page_off);
    auto it = residentIndex_.find(key);
    if (it != residentIndex_.end()) {
        // Already in SCM: a soft fault that only updates the page table
        // without copying data from the backing file (section 4.2).
        ++stats_.soft_faults;
        if (!initial) {
            auto pos = lruPos_.find(it->second);
            if (pos != lruPos_.end()) {
                lru_.splice(lru_.end(), lru_, pos->second);
                lruPos_[it->second] = std::prev(lru_.end());
            }
        }
        return;
    }
    ++stats_.faults;
    allocFrame(m.fileId, page_off);
}

void *
RegionManager::mapFile(const std::string &file_name, size_t length,
                       uintptr_t fixed_addr)
{
    std::lock_guard<std::mutex> g(mu_);
    if (fixed_addr < cfg_.va_base + metaBytes_ ||
        fixed_addr + length > cfg_.va_base + cfg_.va_reserve) {
        throw std::runtime_error(
            "RegionManager: address outside reserved range");
    }
    length = pagesOf(length) * kPageSize;

    const std::string path = backingPath(file_name);
    const bool existed = access(path.c_str(), F_OK) == 0;
    existed_[file_name] = existed;
    const int fd = open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        throw std::runtime_error("RegionManager: cannot open " + path);
    if (ftruncate(fd, off_t(length)) != 0) {
        close(fd);
        throw std::runtime_error("RegionManager: cannot size " + path);
    }
    void *addr = mmap(reinterpret_cast<void *>(fixed_addr), length,
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED, fd, 0);
    if (addr == MAP_FAILED) {
        close(fd);
        throw std::runtime_error("RegionManager: cannot map " + path);
    }

    const uint64_t file_id = internFileName(file_name);
    mappings_.push_back(Mapping{file_name, file_id, fd, fixed_addr, length});

    // Fault the region into the SCM zone.
    Mapping &m = mappings_.back();
    for (uintptr_t p = fixed_addr; p < fixed_addr + length; p += kPageSize)
        makeResident(m, p, true);
    scm::ctx().fence();
    stats_.frames_resident = residentIndex_.size();
    {
        static obs::Counter maps{"region.maps"};
        maps.add(1);
    }
    return addr;
}

void
RegionManager::touchPage(uintptr_t page_addr)
{
    std::lock_guard<std::mutex> g(mu_);
    Mapping *m = findMapping(page_addr);
    if (!m)
        return;
    makeResident(*m, page_addr & ~(uintptr_t(kPageSize) - 1), false);
    stats_.frames_resident = residentIndex_.size();
}

void
RegionManager::evictRange(uintptr_t addr, size_t length)
{
    std::lock_guard<std::mutex> g(mu_);
    Mapping *m = findMapping(addr);
    if (!m)
        return;
    auto &c = scm::ctx();
    for (uintptr_t p = addr; p < addr + length; p += kPageSize) {
        const uint64_t page_off = (p - m->addr) / kPageSize;
        auto it = residentIndex_.find(residentKey(m->fileId, page_off));
        if (it == residentIndex_.end())
            continue;
        const size_t f = it->second;
        msync(reinterpret_cast<void *>(p), kPageSize, MS_SYNC);
        MapEntry e{0, 0, 0};
        c.wtstore(&mapTable_[f], &e, sizeof(e));
        descriptors_.erase(f);
        auto pos = lruPos_.find(f);
        if (pos != lruPos_.end()) {
            lru_.erase(pos->second);
            lruPos_.erase(pos);
        }
        residentIndex_.erase(it);
        freeFrames_.push_back(f);
        ++stats_.evictions;
    }
    c.fence();
    stats_.frames_resident = residentIndex_.size();
}

void
RegionManager::unmapFile(uintptr_t addr, size_t length)
{
    length = pagesOf(length) * kPageSize;
    evictRange(addr, length);
    std::lock_guard<std::mutex> g(mu_);
    for (auto it = mappings_.begin(); it != mappings_.end(); ++it) {
        if (it->addr != addr)
            continue;
        msync(reinterpret_cast<void *>(it->addr), it->length, MS_SYNC);
        close(it->fd);
        mappings_.erase(it);
        break;
    }
    // Re-establish the PROT_NONE reservation over the hole.
    mmap(reinterpret_cast<void *>(addr), length, PROT_NONE,
         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
    {
        static obs::Counter unmaps{"region.unmaps"};
        unmaps.add(1);
    }
}

void
RegionManager::destroyFile(const std::string &file_name, uintptr_t addr,
                           size_t length)
{
    if (addr)
        unmapFile(addr, length);
    unlink(backingPath(file_name).c_str());
}

bool
RegionManager::existedBefore(const std::string &file_name) const
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = existed_.find(file_name);
    return it != existed_.end() && it->second;
}

ZoneStats
RegionManager::zoneStats() const
{
    std::lock_guard<std::mutex> g(mu_);
    return stats_;
}

} // namespace mnemosyne::region
