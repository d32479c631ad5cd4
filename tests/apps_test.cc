/**
 * @file
 * End-to-end tests for the application case studies: the mini
 * directory server with its three backends (reliability semantics
 * included: the paper's "crash OpenLDAP in the middle of a transaction"
 * validation) and TokyoMini in msync vs Mnemosyne modes.
 */

#include <gtest/gtest.h>

#include <string>

#include "apps/ldap.h"
#include "apps/ldif_workload.h"
#include "apps/tokyo_mini.h"
#include "pcmdisk/minifs.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace apps = mnemosyne::apps;
namespace pcm = mnemosyne::pcmdisk;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;

namespace {

RuntimeConfig
rtCfg(scm::ScmContext &c, const std::string &dir)
{
    RuntimeConfig rc;
    rc.scm_context = &c;
    rc.region = smallRegionConfig(dir);
    rc.small_heap_bytes = 16 << 20;
    rc.big_heap_bytes = 8 << 20;
    rc.txn.log_slots = 8;
    rc.txn.log_slot_bytes = 256 * 1024;
    return rc;
}

pcm::PcmDiskConfig
diskCfg()
{
    pcm::PcmDiskConfig c;
    c.capacity_bytes = 64 << 20;
    return c;
}

} // namespace

TEST(Ldif, WorkloadGeneratesValidEntries)
{
    apps::LdifWorkload wl(7);
    const std::string ldif = wl.entryLdif(123);
    apps::Entry e = apps::DirectoryServer::parseLdif(ldif);
    EXPECT_EQ(e.dn, wl.entryDn(123));
    EXPECT_GE(e.attrs.size(), 8u);
    bool has_mail = false;
    for (auto &[a, v] : e.attrs)
        has_mail |= (a == "mail" && !v.empty());
    EXPECT_TRUE(has_mail);
    // Deterministic generation.
    EXPECT_EQ(ldif, apps::LdifWorkload(7).entryLdif(123));
}

TEST(Entry, EncodeDecodeRoundTrip)
{
    apps::Entry e;
    e.dn = "uid=x,dc=example";
    e.attrs = {{"cn", "X Y"}, {"mail", "x@example.com"}};
    apps::Entry d = apps::Entry::decode(e.encode());
    EXPECT_EQ(d.dn, e.dn);
    EXPECT_EQ(d.attrs, e.attrs);
}

TEST(Ldap, MalformedLdifRejected)
{
    apps::Entry e;
    EXPECT_THROW(apps::DirectoryServer::parseLdif("garbage line\n"),
                 std::invalid_argument);
    EXPECT_THROW(apps::DirectoryServer::parseLdif("cn: no dn here\n"),
                 std::invalid_argument);
    // No objectClass fails the schema check.
    apps::AttrDescTable descs;
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    apps::BackMnemosyne be(rt, descs);
    apps::DirectoryServer srv(be);
    EXPECT_THROW(srv.addFromLdif("dn: uid=a,dc=x\ncn: a\n"),
                 std::invalid_argument);
}

class LdapBackends : public ::testing::TestWithParam<int>
{
};

TEST_P(LdapBackends, AddThenSearchAllEntries)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    pcm::PcmDisk disk(diskCfg());
    pcm::MiniFs fs(disk);
    apps::AttrDescTable descs;

    std::unique_ptr<apps::Backend> be;
    switch (GetParam()) {
      case 0:
        be = std::make_unique<apps::BackBdb>(fs, "ldap");
        break;
      case 1:
        be = std::make_unique<apps::BackLdbm>(fs, "ldap");
        break;
      default:
        be = std::make_unique<apps::BackMnemosyne>(rt, descs);
        break;
    }
    apps::DirectoryServer srv(*be);
    apps::LdifWorkload wl(3);
    for (uint64_t i = 0; i < 200; ++i)
        srv.addFromLdif(wl.entryLdif(i));
    EXPECT_EQ(be->entryCount(), 200u);
    for (uint64_t i = 0; i < 200; i += 17) {
        auto e = srv.search(wl.entryDn(i));
        ASSERT_TRUE(e.has_value()) << be->name() << " entry " << i;
        EXPECT_EQ(e->dn, wl.entryDn(i));
    }
    EXPECT_FALSE(srv.search("uid=absent,dc=example").has_value());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LdapBackends, ::testing::Values(0, 1, 2));

TEST(Ldap, BackMnemosyneSurvivesCrashMidWorkload)
{
    // The paper's reliability test: crash the server mid-transaction
    // and verify the committed entries are all there after restart.
    TempDir dir;
    apps::LdifWorkload wl(5);
    uint64_t added = 0;
    {
        scm::ScmConfig sc;
        sc.crash_mode = scm::CrashPersistMode::kRandomSubset;
        sc.crash_seed = 99;
        scm::ScmContext c(sc);
        Runtime rt(rtCfg(c, dir.path()));
        apps::AttrDescTable descs;
        apps::BackMnemosyne be(rt, descs);
        apps::DirectoryServer srv(be);
        const uint64_t crash_at = c.eventCount() + 2000;
        c.setWriteHook([&](uint64_t n, scm::ScmContext::Event, const void *,
                           size_t) {
            if (n >= crash_at)
                throw scm::CrashNow{n};
        });
        try {
            for (uint64_t i = 0; i < 500; ++i) {
                srv.addFromLdif(wl.entryLdif(i));
                ++added;
            }
        } catch (const scm::CrashNow &) {
        }
        c.setWriteHook(nullptr);
        c.crash(true);
    }
    ASSERT_GT(added, 0u);

    scm::ScmContext c2{scm::ScmConfig{}};
    Runtime rt(rtCfg(c2, dir.path()));
    apps::AttrDescTable descs; // NEW generation: volatile descs are stale
    apps::BackMnemosyne be(rt, descs);
    apps::DirectoryServer srv(be);
    for (uint64_t i = 0; i < added; ++i) {
        auto e = srv.search(wl.entryDn(i));
        ASSERT_TRUE(e.has_value()) << "committed entry " << i << " lost";
        EXPECT_GE(e->attrs.size(), 8u)
            << "stale attribute descriptions must re-resolve";
    }
}

TEST(Ldap, BackLdbmLosesWindowAfterCrashButBdbDoesNot)
{
    pcm::PcmDiskConfig dc = diskCfg();
    dc.torn_block_writes = false;
    pcm::PcmDisk disk(dc);
    pcm::MiniFs fs(disk);
    apps::LdifWorkload wl(9);
    {
        apps::BackBdb bdb(fs, "bdb");
        apps::BackLdbm ldbm(fs, "ldbm", /*flush_every=*/1000);
        apps::DirectoryServer s1(bdb), s2(ldbm);
        for (uint64_t i = 0; i < 50; ++i) {
            s1.addFromLdif(wl.entryLdif(i));
            s2.addFromLdif(wl.entryLdif(i));
        }
        // ldbm never flushed (window of vulnerability); bdb committed
        // every add through the WAL.
    }
    disk.crash();
    apps::BackBdb bdb(fs, "bdb");
    apps::BackLdbm ldbm(fs, "ldbm");
    EXPECT_EQ(bdb.entryCount(), 50u) << "transactional backend keeps all";
    EXPECT_EQ(ldbm.entryCount(), 0u) << "back-ldbm loses the window";
}

TEST(TokyoMini, MsyncAndMnemosyneModesAgreeFunctionally)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    Runtime rt(rtCfg(c, dir.path()));
    pcm::PcmDisk disk(diskCfg());
    pcm::MiniFs fs(disk);

    apps::TokyoMini msync(fs, "tc");
    apps::TokyoMini mnemo(rt, "tc_tree");

    for (apps::TokyoMini *tc : {&msync, &mnemo}) {
        for (int i = 0; i < 300; ++i)
            tc->put("key" + std::to_string(i), std::string(64, 'v'));
        for (int i = 0; i < 300; i += 2)
            EXPECT_TRUE(tc->del("key" + std::to_string(i)));
        EXPECT_EQ(tc->count(), 150u);
        std::string v;
        EXPECT_TRUE(tc->get("key151", &v));
        EXPECT_EQ(v.size(), 64u);
        EXPECT_FALSE(tc->get("key150", &v));
    }
}

TEST(TokyoMini, MnemosyneModeSurvivesRestart)
{
    TempDir dir;
    scm::ScmContext c{scm::ScmConfig{}};
    {
        Runtime rt(rtCfg(c, dir.path()));
        apps::TokyoMini tc(rt, "tc_tree");
        for (int i = 0; i < 500; ++i)
            tc.put("key" + std::to_string(i), "value" + std::to_string(i));
    }
    Runtime rt(rtCfg(c, dir.path()));
    apps::TokyoMini tc(rt, "tc_tree");
    EXPECT_EQ(tc.count(), 500u);
    std::string v;
    ASSERT_TRUE(tc.get("key321", &v));
    EXPECT_EQ(v, "value321");
}

TEST(TokyoMini, MsyncModeDurableAfterEveryUpdate)
{
    pcm::PcmDiskConfig dc = diskCfg();
    dc.torn_block_writes = false;
    pcm::PcmDisk disk(dc);
    pcm::MiniFs fs(disk);
    {
        apps::TokyoMini tc(fs, "tc");
        tc.put("a", "1");
        tc.put("b", "2");
    }
    disk.crash();
    apps::TokyoMini tc(fs, "tc");
    std::string v;
    EXPECT_TRUE(tc.get("a", &v));
    EXPECT_TRUE(tc.get("b", &v));
}
