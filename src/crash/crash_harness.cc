#include "crash/crash_harness.h"

#include <random>
#include <sstream>

namespace mnemosyne::crash {

CrashPoint::CrashPoint(scm::ScmContext &c, uint64_t at) : c_(c)
{
    c_.setWriteHook([this, at](uint64_t n, scm::ScmContext::Event,
                               const void *, size_t) {
        if (!fired_ && n >= at) {
            fired_ = true;
            firedEvent_ = n;
            // The machine dies *now*: no write issued by unwinding code
            // can reach SCM, so the post-crash image depends only on the
            // pre-crash history and the crash mode.
            c_.haltNow();
            throw scm::CrashNow{n};
        }
    });
}

CrashPoint::~CrashPoint()
{
    c_.setWriteHook(nullptr);
}

StressEngine::StressEngine(Runtime &rt, uint64_t seed,
                           const std::string &array_name)
    : rt_(rt), seed_(seed)
{
    arr_ = static_cast<uint64_t *>(rt.regions().pstaticVar(
        array_name, kWords * sizeof(uint64_t), nullptr));
}

void
StressEngine::opTargets(uint64_t seed, uint64_t op, size_t *idx,
                        uint64_t *val)
{
    std::mt19937_64 rng(seed * 69069 + op * 2654435761ULL);
    for (int k = 0; k < kWordsPerOp; ++k) {
        idx[k] = size_t(rng() % kWords);
        val[k] = rng();
    }
}

void
StressEngine::runOps(uint64_t total_ops, uint64_t *committed)
{
    for (uint64_t op = 0; op < total_ops; ++op) {
        size_t idx[kWordsPerOp];
        uint64_t val[kWordsPerOp];
        opTargets(seed_, op, idx, val);
        rt_.atomic([&](mtm::Txn &tx) {
            for (int k = 0; k < kWordsPerOp; ++k)
                tx.writeT<uint64_t>(&arr_[idx[k]], val[k]);
        });
        ++*committed;
    }
}

uint64_t
StressEngine::run(scm::ScmContext &c, uint64_t total_ops,
                  uint64_t crash_at_event)
{
    uint64_t committed = 0;
    lastCrashEvent_ = 0;
    try {
        CrashPoint cp(c, crash_at_event);
        try {
            runOps(total_ops, &committed);
        } catch (...) {
            lastCrashEvent_ = cp.firedEvent();
            throw;
        }
    } catch (const scm::CrashNow &) {
    }
    return committed;
}

StressResult
StressEngine::verify(Runtime &rt, uint64_t seed, uint64_t committed_ops,
                     const std::string &array_name, uint64_t crash_event)
{
    auto *arr = static_cast<uint64_t *>(rt.regions().pstaticVar(
        array_name, kWords * sizeof(uint64_t), nullptr));

    auto image = [&](uint64_t ops) {
        std::vector<uint64_t> img(kWords, 0);
        for (uint64_t op = 0; op < ops; ++op) {
            size_t idx[kWordsPerOp];
            uint64_t val[kWordsPerOp];
            opTargets(seed, op, idx, val);
            for (int k = 0; k < kWordsPerOp; ++k)
                img[idx[k]] = val[k];
        }
        return img;
    };

    StressResult res;
    res.committed_ops = committed_ops;
    res.crash_event = crash_event;
    const auto exact = image(committed_ops);
    const auto plus_one = image(committed_ops + 1);
    bool match_exact = true, match_next = true;
    size_t bad = kWords;
    size_t n_bad = 0;
    for (size_t i = 0; i < kWords; ++i) {
        if (arr[i] != exact[i]) {
            match_exact = false;
            ++n_bad;
            if (bad == kWords)
                bad = i;
        }
        if (arr[i] != plus_one[i])
            match_next = false;
    }
    res.verified = match_exact || match_next;
    if (!res.verified) {
        res.bad_index = bad;
        res.expected = exact[bad];
        res.actual = arr[bad];
        res.mismatched_words = n_bad;
        std::ostringstream os;
        os << "word " << bad << ": have 0x" << std::hex << arr[bad]
           << " want 0x" << exact[bad] << std::dec << " ("
           << n_bad << "/" << kWords << " words differ, committed "
           << committed_ops;
        if (crash_event)
            os << ", crash at event " << crash_event;
        os << ")";
        res.mismatch = os.str();
    }
    return res;
}

std::vector<size_t>
flipRandomBits(void *data, size_t bytes, size_t flips, uint64_t seed)
{
    auto *p = static_cast<uint8_t *>(data);
    std::mt19937_64 rng(seed);
    std::vector<size_t> positions;
    for (size_t i = 0; i < flips; ++i) {
        const size_t bit = size_t(rng() % (bytes * 8));
        p[bit / 8] ^= uint8_t(1u << (bit % 8));
        positions.push_back(bit);
    }
    return positions;
}

} // namespace mnemosyne::crash
