/**
 * @file
 * Process fan-out (src/par/procpool): results come back in task
 * order whatever the job count, and payloads larger than a pipe
 * buffer arrive intact.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace nvo
