/**
 * @file
 * Shared helpers for Mnemosyne tests: temporary backing directories,
 * small-footprint region configurations, and stats-counter reads.
 */

#ifndef MNEMOSYNE_TESTS_TEST_UTIL_H_
#define MNEMOSYNE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/stats_registry.h"
#include "region/region_manager.h"

namespace mnemosyne::test {

/** A self-deleting temporary directory for region backing files. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl = "/tmp/mnemosyne_test_XXXXXX";
        path_ = mkdtemp(tmpl.data());
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A small, fast region configuration for tests. */
inline region::RegionConfig
smallRegionConfig(const std::string &dir)
{
    region::RegionConfig cfg;
    cfg.backing_dir = dir;
    cfg.scm_capacity = size_t(64) << 20;     // 64 MB of simulated SCM
    cfg.va_reserve = size_t(2) << 30;        // 2 GB reservation
    return cfg;
}

/** Exact value of the stats counter @p key, from a registry snapshot. */
inline uint64_t
statCounter(const std::string &key)
{
    const std::string snap = obs::StatsRegistry::instance().jsonSnapshot();
    const std::string pat = "\"" + key + "\":";
    const size_t at = snap.find(pat);
    return at == std::string::npos ? 0
                                   : std::stoull(snap.substr(at + pat.size()));
}

} // namespace mnemosyne::test

#endif // MNEMOSYNE_TESTS_TEST_UTIL_H_
