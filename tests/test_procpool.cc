/**
 * @file
 * Process fan-out (src/par/procpool): results come back in task
 * order whatever the job count, and payloads larger than a pipe
 * buffer arrive intact, both as raw bytes (forkMap) and as typed
 * values (forkMapOf).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "par/procpool.hh"

namespace nvo
{
namespace
{

TEST(ForkMap, InlineAndForkedAgree)
{
    auto fn = [](unsigned t) {
        return "task" + std::to_string(t * t);
    };
    auto inline_res = par::forkMap(7, 1, fn);
    auto forked_res = par::forkMap(7, 3, fn);
    EXPECT_EQ(inline_res, forked_res);
    ASSERT_EQ(forked_res.size(), 7u);
    EXPECT_EQ(forked_res[3], "task9");
}

TEST(ForkMap, LargePayloadsSurviveThePipe)
{
    // Bigger than a pipe buffer, so partial reads/writes are hit.
    auto fn = [](unsigned t) {
        return std::string(300000 + t, static_cast<char>('a' + t));
    };
    auto res = par::forkMap(3, 2, fn);
    for (unsigned t = 0; t < 3; ++t) {
        ASSERT_EQ(res[t].size(), 300000u + t);
        EXPECT_EQ(res[t].back(), static_cast<char>('a' + t));
    }
}

struct Result
{
    std::uint64_t square = 0;
    double half = 0;
    bool odd = false;
};

TEST(ForkMapOf, InlineAndForkedAgree)
{
    auto fn = [](unsigned t) {
        return Result{std::uint64_t(t) * t, t / 2.0, (t % 2) == 1};
    };
    const std::vector<Result> inline_res = par::forkMapOf(7, 1, fn);
    const std::vector<Result> forked_res = par::forkMapOf(7, 3, fn);
    ASSERT_EQ(inline_res.size(), 7u);
    ASSERT_EQ(forked_res.size(), 7u);
    for (unsigned t = 0; t < 7; ++t) {
        EXPECT_EQ(forked_res[t].square, inline_res[t].square);
        EXPECT_EQ(forked_res[t].half, inline_res[t].half);
        EXPECT_EQ(forked_res[t].odd, inline_res[t].odd);
    }
    EXPECT_EQ(forked_res[3].square, 9u);
    EXPECT_EQ(forked_res[3].half, 1.5);
    EXPECT_TRUE(forked_res[3].odd);
}

TEST(ForkMapOf, LargeValuesSurviveThePipe)
{
    // 320 KB per value: bigger than a pipe buffer.
    using Big = std::array<std::uint64_t, 40000>;
    auto fn = [](unsigned t) {
        Big big{};
        for (std::size_t i = 0; i < big.size(); ++i)
            big[i] = i * 3 + t;
        return big;
    };
    const std::vector<Big> res = par::forkMapOf(3, 2, fn);
    ASSERT_EQ(res.size(), 3u);
    for (unsigned t = 0; t < 3; ++t)
        EXPECT_EQ(res[t], fn(t)) << "task " << t;
}

} // namespace
} // namespace nvo
