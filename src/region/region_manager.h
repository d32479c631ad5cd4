/**
 * @file
 * The region manager: user-space simulation of Mnemosyne's kernel
 * component (paper sections 3.1 and 4.2).
 *
 * The kernel region manager exposes SCM as memory-mapped files, records
 * the virtual->physical mapping of persistent regions in a persistent
 * mapping table stored at the base of SCM, swaps SCM pages to backing
 * files under memory pressure, and reconstructs persistent regions when
 * the OS boots.
 *
 * This simulation preserves those protocols:
 *
 *  - A large fixed virtual address range is reserved (the paper reserves
 *    one terabyte) so regions always map at the same addresses and raw
 *    pointers stored in persistent memory stay valid across restarts.
 *  - Every region is backed by a real file (honoring the paper's
 *    MNEMOSYNE_REGION_PATH environment variable), mapped MAP_SHARED at
 *    its fixed address, which makes persistence real across process
 *    kills.
 *  - An "SCM zone" with a configurable frame budget models the finite
 *    amount of SCM: page residency is tracked, and exceeding the budget
 *    evicts least-recently-faulted pages to their backing files (msync +
 *    MADV_DONTNEED), exactly the virtualization story of section 3.4.
 *  - A persistent mapping table records <scm_frame, file, page_offset>
 *    triples; bootReconstruct() replays the table to rebuild the page
 *    descriptors and the inode cache, which is the cost measured in the
 *    reincarnation study (section 6.3.2).
 */

#ifndef MNEMOSYNE_REGION_REGION_MANAGER_H_
#define MNEMOSYNE_REGION_REGION_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

// ASan's 64-bit primary allocator owns [0x6000'0000'0000,
// 0x6400'0000'0000), so sanitized builds reserve the persistent range
// lower in high memory.
#if defined(__SANITIZE_ADDRESS__)
#define MNEMOSYNE_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MNEMOSYNE_ASAN_ACTIVE 1
#endif
#endif
#ifndef MNEMOSYNE_ASAN_ACTIVE
#define MNEMOSYNE_ASAN_ACTIVE 0
#endif

// TSan owns most of the address space for shadow/metainfo and its
// interceptor silently drops mmap hints outside its application ranges
// (libtsan's low app range ends at 0x0080'0000'0000; the mid range
// hosts the PIE binary, so large fixed maps there can collide).  TSan
// builds therefore park the persistent range at 256 GB with a 256 GB
// reservation, which fits entirely inside the low app range.
#if defined(__SANITIZE_THREAD__)
#define MNEMOSYNE_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MNEMOSYNE_TSAN_ACTIVE 1
#endif
#endif
#ifndef MNEMOSYNE_TSAN_ACTIVE
#define MNEMOSYNE_TSAN_ACTIVE 0
#endif

namespace mnemosyne::scm {
class ScmContext;
}

namespace mnemosyne::region {

inline constexpr size_t kPageSize = 4096;

/** Configuration of the simulated SCM zone and address space. */
struct RegionConfig {
    /** Base of the reserved persistent address range. */
    uintptr_t va_base = MNEMOSYNE_TSAN_ACTIVE   ? 0x004000000000ULL
                        : MNEMOSYNE_ASAN_ACTIVE ? 0x550000000000ULL
                                                : 0x600000000000ULL;

    /** Size of the reserved range (the paper reserves 1 TB; TSan's low
     *  application range only fits 256 GB). */
    size_t va_reserve =
        MNEMOSYNE_TSAN_ACTIVE ? size_t(1) << 38 : size_t(1) << 40;

    /** Simulated physical SCM capacity (frame budget for residency). */
    size_t scm_capacity = size_t(256) << 20;

    /** Directory for backing files; overridden by MNEMOSYNE_REGION_PATH. */
    std::string backing_dir = ".";
};

/** Statistics about the simulated SCM zone. */
struct ZoneStats {
    size_t frames_total = 0;
    size_t frames_resident = 0;
    uint64_t faults = 0;        ///< Pages faulted into SCM.
    uint64_t soft_faults = 0;   ///< Faults satisfied without file copy.
    uint64_t evictions = 0;     ///< Pages swapped out to backing files.
};

/**
 * Simulated kernel region manager.  Thread-safe.  Built on one SCM
 * emulator, which every layer above reaches through scm().
 */
class RegionManager
{
  public:
    explicit RegionManager(scm::ScmContext &scm, RegionConfig cfg = {});
    ~RegionManager();

    RegionManager(const RegionManager &) = delete;
    RegionManager &operator=(const RegionManager &) = delete;

    /**
     * Map @p length bytes of @p file_name (created and extended as
     * needed) at @p fixed_addr inside the reserved range — the mmap
     * MAP_PERSIST path of the paper.  All pages are faulted resident.
     * Returns the mapped address.
     */
    void *mapFile(const std::string &file_name, size_t length,
                  uintptr_t fixed_addr);

    /** Unmap a region previously mapped with mapFile (data stays in the
     *  backing file). */
    void unmapFile(uintptr_t addr, size_t length);

    /** Unmap and delete the backing file. */
    void destroyFile(const std::string &file_name, uintptr_t addr,
                     size_t length);

    /** Evict every resident page of [addr, addr+len) to its file. */
    void evictRange(uintptr_t addr, size_t length);

    /**
     * Simulate OS boot: drop all volatile descriptors, then scan the
     * persistent mapping table rebuilding the page descriptors and the
     * inode (backing-file) cache.  Returns the number of table entries
     * scanned; the reincarnation benchmark times this call.
     */
    size_t bootReconstruct();

    /** True if @p file_name's backing file already existed at mapFile. */
    bool existedBefore(const std::string &file_name) const;

    ZoneStats zoneStats() const;

    const RegionConfig &config() const { return cfg_; }
    scm::ScmContext &scm() const { return scm_; }
    std::string backingPath(const std::string &file_name) const;

    uintptr_t vaBase() const { return cfg_.va_base; }
    size_t vaReserve() const { return cfg_.va_reserve; }

    /** First address past the persistent mapping table, available for
     *  regions. */
    uintptr_t firstUsableVa() const { return cfg_.va_base + metaBytes_; }

  private:
    /** One persistent mapping-table entry: <scm_frame, file, page_off>. */
    struct MapEntry {
        uint64_t used;      ///< 0 = free frame, 1 = holds a page.
        uint64_t fileId;    ///< Index into the persistent file-name table.
        uint64_t pageOff;   ///< Page offset within the file.
    };

    struct FileNameEntry {
        char name[120];
        uint64_t used;
    };

    /** Volatile descriptor of a mapped region. */
    struct Mapping {
        std::string fileName;
        uint64_t fileId;
        int fd;
        uintptr_t addr;
        size_t length;
    };

    void openMetadata();
    uint64_t internFileName(const std::string &name);
    size_t allocFrame(uint64_t file_id, uint64_t page_off);
    void evictOne();
    Mapping *findMapping(uintptr_t addr);
    void makeResident(Mapping &m, uintptr_t page_addr);

    scm::ScmContext &scm_;
    RegionConfig cfg_;
    mutable std::mutex mu_;

    void *reservation_ = nullptr;

    // Persistent metadata (mapped at the base of the reserved range).
    int metaFd_ = -1;
    MapEntry *mapTable_ = nullptr;      ///< One entry per SCM frame.
    FileNameEntry *fileNames_ = nullptr;
    size_t nFrames_ = 0;
    size_t nFileNames_ = 0;
    size_t metaBytes_ = 0;

    // Volatile state rebuilt by bootReconstruct().
    std::vector<Mapping> mappings_;
    /** frame -> (fileId, pageOff) descriptors (the "page descriptors"). */
    std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> descriptors_;
    /** (fileId, pageOff) -> frame for residency lookups. */
    std::unordered_map<uint64_t, size_t> residentIndex_;
    /** LRU of resident frames (front = oldest). */
    std::list<size_t> lru_;
    std::unordered_map<size_t, std::list<size_t>::iterator> lruPos_;
    std::vector<size_t> freeFrames_;
    /** fileId -> fd, the simulated inode cache. */
    std::unordered_map<uint64_t, int> inodeCache_;

    ZoneStats stats_;
    std::unordered_map<std::string, bool> existed_;
    uint64_t statsSourceToken_ = 0;
};

} // namespace mnemosyne::region

#endif // MNEMOSYNE_REGION_REGION_MANAGER_H_
