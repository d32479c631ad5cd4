/**
 * @file
 * Tests for the networked KV service: protocol codec round-trips, an
 * in-process server exercised through real sockets (sync ops, deep
 * pipelining with FIFO acks, batch transactions, STAT, per-connection
 * backpressure), shutdown draining, and the relaxed-durability API of
 * PHashTable that the event loops rely on.
 */

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ds/phash_table.h"
#include "runtime/runtime.h"
#include "scm/scm.h"
#include "server/kv_client.h"
#include "server/kv_protocol.h"
#include "server/kv_server.h"
#include "tests/test_util.h"

namespace scm = mnemosyne::scm;
namespace mtm = mnemosyne::mtm;
namespace srv = mnemosyne::server;
using mnemosyne::Runtime;
using mnemosyne::RuntimeConfig;
using mnemosyne::test::TempDir;
using mnemosyne::test::smallRegionConfig;

namespace {

scm::ScmConfig
scmCfg()
{
    scm::ScmConfig c;
    c.crash_mode = scm::CrashPersistMode::kDropUnfenced;
    c.failure_tracking = false;
    return c;
}

RuntimeConfig
rtCfg(scm::ScmContext &c, const std::string &dir)
{
    RuntimeConfig rc;
    rc.scm_context = &c;
    rc.region = smallRegionConfig(dir);
    rc.small_heap_bytes = 8 << 20;
    rc.big_heap_bytes = 4 << 20;
    rc.static_region_bytes = 1 << 20;
    rc.txn.log_slots = 12;
    rc.txn.log_slot_bytes = 256 * 1024;
    rc.txn.group_commit = true;
    rc.txn.truncation = mtm::Truncation::kAsync;
    return rc;
}

/** A runtime + started server + connected client, torn down in order. */
struct ServerFixture {
    TempDir dir;
    scm::ScmContext ctx{scmCfg()};
    Runtime rt{rtCfg(ctx, dir.path())};
    srv::KvServer server;
    srv::KvClient client;

    explicit ServerFixture(srv::KvServerConfig cfg = {})
        : server(rt, withDefaults(cfg))
    {
        scm::setCtx(&ctx); // STAT's "scm.*" keys report the published one
        EXPECT_TRUE(server.start());
        EXPECT_TRUE(client.connect("127.0.0.1", server.port()));
    }

    static srv::KvServerConfig
    withDefaults(srv::KvServerConfig cfg)
    {
        if (cfg.nbuckets == (1u << 15))
            cfg.nbuckets = 512;     // small tables for small heaps
        return cfg;
    }
};

} // namespace

TEST(KvProtocol, RequestRoundTrip)
{
    std::vector<uint8_t> buf;
    srv::appendRequest(buf, 42, srv::Op::kPut, "key", "value");
    ASSERT_GE(buf.size(), 4u);
    const uint32_t len = srv::getU32(buf.data());
    ASSERT_EQ(buf.size(), 4 + size_t(len));
    srv::RequestView v;
    ASSERT_TRUE(srv::parseRequest(buf.data() + 4, len, &v));
    EXPECT_EQ(v.id, 42u);
    EXPECT_EQ(v.op, srv::Op::kPut);
    EXPECT_EQ(v.key, "key");
    EXPECT_EQ(v.value, "value");
}

TEST(KvProtocol, ResponseRoundTrip)
{
    std::vector<uint8_t> buf;
    srv::appendResponse(buf, 7, srv::Status::kNotFound, srv::Op::kGet, "x");
    const uint32_t len = srv::getU32(buf.data());
    srv::ResponseView v;
    ASSERT_TRUE(srv::parseResponse(buf.data() + 4, len, &v));
    EXPECT_EQ(v.id, 7u);
    EXPECT_EQ(v.status, srv::Status::kNotFound);
    EXPECT_EQ(v.op, srv::Op::kGet);
    EXPECT_EQ(v.value, "x");
}

TEST(KvProtocol, RejectsMalformedFrames)
{
    srv::RequestView v;
    // Truncated header.
    uint8_t small[4] = {0, 0, 0, 0};
    EXPECT_FALSE(srv::parseRequest(small, sizeof(small), &v));
    // Length fields inconsistent with payload size.
    std::vector<uint8_t> buf;
    srv::appendRequest(buf, 1, srv::Op::kGet, "abc", "");
    EXPECT_FALSE(srv::parseRequest(buf.data() + 4,
                                   srv::getU32(buf.data()) - 1, &v));
}

TEST(KvProtocol, BatchRoundTrip)
{
    std::vector<srv::BatchOp> ops = {
        {srv::Op::kPut, "a", "1"},
        {srv::Op::kDel, "b", ""},
        {srv::Op::kPut, "c", "33"},
    };
    const std::vector<uint8_t> body = srv::encodeBatch(ops);
    std::vector<srv::BatchOp> back;
    ASSERT_TRUE(srv::decodeBatch(
        std::string_view(reinterpret_cast<const char *>(body.data()),
                         body.size()),
        &back));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].op, srv::Op::kPut);
    EXPECT_EQ(back[0].key, "a");
    EXPECT_EQ(back[2].value, "33");
    std::vector<srv::BatchOp> bad;
    EXPECT_FALSE(srv::decodeBatch("xy", &bad));
}

TEST(KvServer, PutGetDelRoundTrip)
{
    ServerFixture f;
    EXPECT_EQ(f.client.put("hello", "world"), srv::Status::kOk);
    std::string v;
    EXPECT_EQ(f.client.get("hello", &v), srv::Status::kOk);
    EXPECT_EQ(v, "world");
    EXPECT_EQ(f.client.del("hello"), srv::Status::kOk);
    EXPECT_EQ(f.client.get("hello", &v), srv::Status::kNotFound);
    EXPECT_EQ(f.client.del("hello"), srv::Status::kNotFound);
    EXPECT_TRUE(f.client.ping());
}

TEST(KvServer, OverwriteBothLengthPaths)
{
    ServerFixture f;
    ASSERT_EQ(f.client.put("k", "aaaa"), srv::Status::kOk);
    // Same length: in-place overwrite path.
    ASSERT_EQ(f.client.put("k", "bbbb"), srv::Status::kOk);
    std::string v;
    ASSERT_EQ(f.client.get("k", &v), srv::Status::kOk);
    EXPECT_EQ(v, "bbbb");
    // Different length: node-splice path.
    ASSERT_EQ(f.client.put("k", "cc"), srv::Status::kOk);
    ASSERT_EQ(f.client.get("k", &v), srv::Status::kOk);
    EXPECT_EQ(v, "cc");
}

TEST(KvServer, PipelinedRequestsAckInOrder)
{
    ServerFixture f;
    constexpr int kDepth = 64;
    std::vector<uint64_t> ids;
    for (int i = 0; i < kDepth; ++i)
        ids.push_back(f.client.sendRaw(srv::Op::kPut,
                                       "p" + std::to_string(i % 7),
                                       "v" + std::to_string(i)));
    ASSERT_TRUE(f.client.flush());
    for (int i = 0; i < kDepth; ++i) {
        srv::KvClient::Response r;
        ASSERT_TRUE(f.client.recvOne(&r));
        EXPECT_EQ(r.id, ids[size_t(i)]) << "response out of order";
        EXPECT_EQ(r.status, srv::Status::kOk);
    }
    std::string v;
    ASSERT_EQ(f.client.get("p" + std::to_string((kDepth - 1) % 7), &v),
              srv::Status::kOk);
    EXPECT_EQ(v, "v" + std::to_string(kDepth - 1));
}

TEST(KvServer, PipelinedReadAfterWriteWaitsInsteadOfAborting)
{
    // One loop, one connection: each GET is pipelined right behind a
    // PUT of the same key, so it meets the PUT's stripes while the
    // PUT's epoch is still open.  The GET waits for that epoch (sealing
    // it at once) and returns the new value.  A single loop never meets
    // a transaction still in flight, so nothing aborts.
    ServerFixture f({.workers = 1});
    constexpr int kKeys = 8;
    constexpr int kPairs = 200;
    auto key = [](int i) { return "raw" + std::to_string(i % kKeys); };
    auto value = [](int i) {
        char v[8];
        std::snprintf(v, sizeof(v), "v%03d", i);
        return std::string(v);
    };
    for (int k = 0; k < kKeys; ++k)
        ASSERT_EQ(f.client.put(key(k), "init"), srv::Status::kOk);
    const uint64_t aborts0 = f.rt.txns().stats().aborts;

    // Same-length values: every PUT takes the in-place path.
    for (int i = 0; i < kPairs; ++i) {
        f.client.sendRaw(srv::Op::kPut, key(i), value(i));
        f.client.sendRaw(srv::Op::kGet, key(i), "");
    }
    ASSERT_TRUE(f.client.flush());
    for (int i = 0; i < kPairs; ++i) {
        srv::KvClient::Response put;
        srv::KvClient::Response get;
        ASSERT_TRUE(f.client.recvOne(&put));
        ASSERT_TRUE(f.client.recvOne(&get));
        ASSERT_EQ(put.status, srv::Status::kOk);
        ASSERT_EQ(get.status, srv::Status::kOk);
        EXPECT_EQ(get.value, value(i)) << "pair " << i;
    }
    EXPECT_EQ(f.rt.txns().stats().aborts, aborts0);
}

TEST(KvServer, BatchIsOneTransaction)
{
    ServerFixture f;
    ASSERT_EQ(f.client.put("dead", "x"), srv::Status::kOk);
    std::string statuses;
    const srv::Status st = f.client.batch(
        {
            {srv::Op::kPut, "b1", "v1"},
            {srv::Op::kPut, "b2", "v2"},
            {srv::Op::kDel, "dead", ""},
            {srv::Op::kDel, "never-existed", ""},
        },
        &statuses);
    ASSERT_EQ(st, srv::Status::kOk);
    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_EQ(srv::Status(statuses[0]), srv::Status::kOk);
    EXPECT_EQ(srv::Status(statuses[1]), srv::Status::kOk);
    EXPECT_EQ(srv::Status(statuses[2]), srv::Status::kOk);
    EXPECT_EQ(srv::Status(statuses[3]), srv::Status::kNotFound);
    std::string v;
    EXPECT_EQ(f.client.get("b1", &v), srv::Status::kOk);
    EXPECT_EQ(v, "v1");
    EXPECT_EQ(f.client.get("dead", &v), srv::Status::kNotFound);
}

TEST(KvServer, BatchLimitsEnforced)
{
    ServerFixture f;
    std::vector<srv::BatchOp> toomany;
    std::vector<std::string> keys;
    for (uint32_t i = 0; i <= srv::kMaxBatchOps; ++i)
        keys.push_back("tb" + std::to_string(i));
    for (auto &k : keys)
        toomany.push_back({srv::Op::kPut, k, "v"});
    EXPECT_EQ(f.client.batch(toomany, nullptr), srv::Status::kTooLarge);
    // GET inside a batch is not a write op: rejected.
    EXPECT_EQ(f.client.batch({{srv::Op::kGet, "a", ""}}, nullptr),
              srv::Status::kBadRequest);
    // A full-size batch of inserts works (grave/stage budget honored).
    std::vector<srv::BatchOp> full;
    for (uint32_t i = 0; i < srv::kMaxBatchOps; ++i)
        full.push_back({srv::Op::kPut, keys[i], "w"});
    EXPECT_EQ(f.client.batch(full, nullptr), srv::Status::kOk);
    // And replacing all of them with different lengths frees max graves.
    std::vector<srv::BatchOp> repl;
    for (uint32_t i = 0; i < srv::kMaxBatchOps; ++i)
        repl.push_back({srv::Op::kPut, keys[i], "longer-value"});
    EXPECT_EQ(f.client.batch(repl, nullptr), srv::Status::kOk);
    std::string v;
    ASSERT_EQ(f.client.get("tb0", &v), srv::Status::kOk);
    EXPECT_EQ(v, "longer-value");
}

TEST(KvServer, OversizedKeyRejected)
{
    ServerFixture f;
    const std::string big(srv::kMaxKeyBytes + 1, 'k');
    EXPECT_EQ(f.client.put(big, "v"), srv::Status::kTooLarge);
    EXPECT_TRUE(f.client.ping());   // connection survives
}

TEST(KvServer, StatReturnsCounters)
{
    ServerFixture f;
    ASSERT_EQ(f.client.put("s", "1"), srv::Status::kOk);
    std::string json;
    ASSERT_TRUE(f.client.stat(&json));
    // Exact emulator/txn counters must be present — kv_perf's fence
    // gate depends on these keys.
    EXPECT_NE(json.find("\"scm.fences\""), std::string::npos);
    EXPECT_NE(json.find("\"mtm.commits\""), std::string::npos);
}

TEST(KvServer, ManyConnectionsConcurrently)
{
    ServerFixture f({.workers = 4});
    constexpr int kConns = 16;
    constexpr int kOps = 40;
    std::vector<std::thread> ts;
    for (int t = 0; t < kConns; ++t) {
        ts.emplace_back([&, t] {
            srv::KvClient cl;
            ASSERT_TRUE(cl.connect("127.0.0.1", f.server.port()));
            for (int i = 0; i < kOps; ++i) {
                const std::string key =
                    "c" + std::to_string(t) + "_" + std::to_string(i % 5);
                ASSERT_EQ(cl.put(key, "v" + std::to_string(i)),
                          srv::Status::kOk);
            }
            std::string v;
            ASSERT_EQ(cl.get("c" + std::to_string(t) + "_4", &v),
                      srv::Status::kOk);
            EXPECT_EQ(v, "v" + std::to_string(kOps - 1));
        });
    }
    for (auto &th : ts)
        th.join();
    EXPECT_GE(f.server.requestsServed(), uint64_t(kConns) * (kOps + 1));
}

TEST(KvServer, BackpressurePausesOnlyTheFloodingConnection)
{
    // One loop serves both connections.  A pipelines a flood of PUTs
    // and reads nothing: once its unsent responses pass the cap the loop
    // must stop reading A (bounded memory) without ever blocking on A's
    // socket, so B's round trips still complete.  Then A reads every
    // response, in request order.
    ServerFixture f({.workers = 1});
    constexpr int kFlood = 300000;
    // A small receive buffer, set before connecting so the advertised
    // window honours it: the kernel cannot absorb the flood's responses
    // on the server's behalf.
    const int a = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(a, 0);
    const int rcvbuf = 16 << 10;
    setsockopt(a, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    // A stuck server fails the test instead of hanging it.
    const timeval tv{30, 0};
    setsockopt(a, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(a, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(f.server.port());
    ASSERT_EQ(connect(a, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
              0);
    std::vector<uint8_t> flood;
    for (int i = 0; i < kFlood; ++i)
        srv::appendRequest(flood, uint64_t(i), srv::Op::kPut,
                           "flood" + std::to_string(i % 64),
                           "v" + std::to_string(i));
    std::atomic<bool> sent{false};
    std::thread writer([&] {
        size_t off = 0;
        while (off < flood.size()) {
            const ssize_t n = write(a, flood.data() + off, flood.size() - off);
            if (n <= 0)
                return;
            off += size_t(n);
        }
        sent = true;
    });

    // Wait until the server stops making progress on A.
    uint64_t served = 0;
    for (int still = 0; still < 10;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const uint64_t now = f.server.requestsServed();
        still = now == served ? still + 1 : 0;
        served = now;
    }
    EXPECT_LT(served, uint64_t(kFlood)) << "the loop never paused A";

    // B shares A's loop; a loop stuck on A would time these out.
    srv::KvClient b;
    ASSERT_TRUE(b.connect("127.0.0.1", f.server.port()));
    setsockopt(b.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    for (int i = 0; i < 100; ++i) {
        const std::string key = "b" + std::to_string(i);
        ASSERT_EQ(b.put(key, "w" + std::to_string(i)), srv::Status::kOk);
        std::string v;
        ASSERT_EQ(b.get(key, &v), srv::Status::kOk);
        EXPECT_EQ(v, "w" + std::to_string(i));
    }

    std::vector<uint8_t> in;
    size_t off = 0;
    for (uint64_t want = 0; want < uint64_t(kFlood);) {
        const size_t avail = in.size() - off;
        uint32_t len = 0;
        if (avail >= 4 && avail >= 4 + size_t(len = srv::getU32(&in[off]))) {
            srv::ResponseView r;
            ASSERT_TRUE(srv::parseResponse(&in[off + 4], len, &r));
            ASSERT_EQ(r.id, want++) << "response out of order";
            ASSERT_EQ(r.status, srv::Status::kOk);
            off += 4 + size_t(len);
            continue;
        }
        uint8_t chunk[64 * 1024];
        const ssize_t n = read(a, chunk, sizeof(chunk));
        ASSERT_GT(n, 0) << "flood connection closed early";
        in.insert(in.end(), chunk, chunk + n);
    }
    writer.join();
    close(a);
    EXPECT_TRUE(sent);
    std::string v;
    ASSERT_EQ(b.get("flood" + std::to_string((kFlood - 1) % 64), &v),
              srv::Status::kOk);
    EXPECT_EQ(v, "v" + std::to_string(kFlood - 1));
}

TEST(KvServer, StopDrainsPipelinedWrites)
{
    TempDir dir;
    scm::ScmContext ctx(scmCfg());
    std::string lastKey;
    {
        Runtime rt(rtCfg(ctx, dir.path()));
        srv::KvServer server(rt, ServerFixture::withDefaults({}));
        ASSERT_TRUE(server.start());
        srv::KvClient cl;
        ASSERT_TRUE(cl.connect("127.0.0.1", server.port()));
        // Leave a deep pipeline of acked writes, then stop: every ack
        // implies durability, and stop() must flush + drain cleanly.
        constexpr int kDepth = 128;
        for (int i = 0; i < kDepth; ++i)
            cl.sendRaw(srv::Op::kPut, "drain" + std::to_string(i), "v");
        ASSERT_TRUE(cl.flush());
        for (int i = 0; i < kDepth; ++i) {
            srv::KvClient::Response r;
            ASSERT_TRUE(cl.recvOne(&r));
            ASSERT_EQ(r.status, srv::Status::kOk);
        }
        lastKey = "drain" + std::to_string(kDepth - 1);
        server.stop();
        // Clean stop leaves zero unreplayed log.
        EXPECT_EQ(rt.txns().truncationBacklog(), 0u);
    }
    // Reincarnate: clean shutdown means nothing to replay, and the
    // acked data is all there.
    Runtime rt2(rtCfg(ctx, dir.path()));
    EXPECT_EQ(rt2.reincarnation().replayed_txns, 0u);
    mnemosyne::ds::PHashTable table(rt2, "kv_server_table", 512);
    std::string v;
    ASSERT_TRUE(table.get(lastKey, &v));
    EXPECT_EQ(v, "v");
}

TEST(PHashTable, AsyncPutDelTickets)
{
    // The relaxed-durability surface the server workers use, exercised
    // directly: tickets retire via wait()/sync(), back-to-back staged
    // async ops on one thread are safe (staging guard), and in-place
    // overwrites coexist with splices.
    TempDir dir;
    scm::ScmContext ctx(scmCfg());
    Runtime rt(rtCfg(ctx, dir.path()));
    mnemosyne::ds::PHashTable table(rt, "async_table", 128);

    mtm::CommitTicket last{};
    for (int i = 0; i < 200; ++i) {
        const std::string key = "a" + std::to_string(i % 17);
        if (i % 5 == 4)
            table.delAsync(key);
        else
            last = table.putAsync(key, "val" + std::to_string(i));
    }
    rt.wait(last);
    rt.sync();
    std::string v;
    ASSERT_TRUE(table.get("a0", &v));   // 170 ≡ 0 (mod 17): last op put
    size_t present = 0;
    for (int k = 0; k < 17; ++k)
        if (table.get("a" + std::to_string(k), &v))
            present++;
    EXPECT_EQ(table.size(), present);
}
