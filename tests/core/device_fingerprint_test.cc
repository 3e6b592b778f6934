/**
 * @file
 * Device-image fingerprints: the exact bytes a fixed ingest writes.
 *
 * Ingest is a pure function of its input, and a change that only makes
 * it faster must leave every byte it writes where it was. Each case
 * ingests a fixed corpus with the benchmark's ingest configuration
 * (typed extraction on, a checkpoint every 64 sealed pages): all but
 * the last 64 KiB, a flush, then the tail left open. It dumps the
 * device with saveDeviceImage(), recovers the dump into a fresh store,
 * dumps that as well, and compares a hash of each dump with a recorded
 * digest. The dumps cover every layer that writes: LZAH data pages,
 * journal chain and snapshots, inverted-index nodes and typed posting
 * pages, before and after the recovery rebuild.
 *
 * A mismatch means the stored bytes moved. When that is the point of a
 * change, record the new digests and say why in EXPERIMENTS.md.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/incident.h"
#include "loggen/log_generator.h"
#include "testutil/scratch_path.h"

namespace mithril::core {
namespace {

/** Bytes of the corpus tail ingested after the flush. */
constexpr size_t kTailBytes = 64 << 10;

MithriLogConfig
ingestConfig()
{
    MithriLogConfig config;
    config.use_typed_index = true;
    config.accel.keep_lines = true;
    config.checkpoint_every_pages = 64;
    return config;
}

/** hash64 of a file's bytes; 0 when it cannot be read. */
uint64_t
fileDigest(const std::string &path, size_t *size)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    *size = bytes.size();
    return bytes.empty() ? 0 : hash64(bytes.data(), bytes.size());
}

std::string
hex(uint64_t v)
{
    return strprintf("0x%016llx", static_cast<unsigned long long>(v));
}

struct Fingerprint {
    uint64_t saved = 0;
    uint64_t recovered = 0;
};

class DeviceFingerprintTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        std::remove(saved_.c_str());
        std::remove(recovered_.c_str());
    }

    Fingerprint
    fingerprint(const std::string &text)
    {
        saved_ = testutil::scratchPath("fingerprint");
        recovered_ = testutil::scratchPath("fingerprint", "_rec.img");
        size_t cut = text.rfind('\n', text.size() - kTailBytes) + 1;
        Fingerprint fp;
        {
            MithriLog store(ingestConfig());
            EXPECT_TRUE(store.ingestText(text.substr(0, cut)).isOk());
            EXPECT_TRUE(store.flush().isOk());
            EXPECT_TRUE(store.ingestText(text.substr(cut)).isOk());
            EXPECT_TRUE(store.saveDeviceImage(saved_).isOk());
        }
        MithriLog mounted(ingestConfig());
        EXPECT_TRUE(mounted.recover(saved_).isOk());
        EXPECT_GT(mounted.lineCount(), 0u);
        EXPECT_TRUE(mounted.saveDeviceImage(recovered_).isOk());

        size_t saved_bytes = 0;
        size_t recovered_bytes = 0;
        fp.saved = fileDigest(saved_, &saved_bytes);
        fp.recovered = fileDigest(recovered_, &recovered_bytes);
        std::printf("saved %zu B digest %s; recovered %zu B digest %s\n",
                    saved_bytes, hex(fp.saved).c_str(), recovered_bytes,
                    hex(fp.recovered).c_str());
        return fp;
    }

    std::string saved_;
    std::string recovered_;
};

TEST_F(DeviceFingerprintTest, Bgl2TwoMiB)
{
    loggen::LogGenerator gen(loggen::datasetByName("BGL2"));
    Fingerprint fp = fingerprint(gen.generate(2 << 20));
    EXPECT_EQ(hex(fp.saved), "0x693fe549bc3ca793");
    EXPECT_EQ(hex(fp.recovered), "0x6d195d942a422c04");
}

TEST_F(DeviceFingerprintTest, IncidentScenario)
{
    loggen::IncidentSpec spec;
    loggen::IncidentGroundTruth truth;
    Fingerprint fp = fingerprint(loggen::generateIncident(spec, &truth));
    EXPECT_EQ(hex(fp.saved), "0xd6aa96314f11f4ba");
    EXPECT_EQ(hex(fp.recovered), "0x6e4bdbb0b099a7a6");
}

} // namespace
} // namespace mithril::core
