/**
 * @file
 * Scratch file names for tests that write device images.
 *
 * ctest runs every test in its own process, many at once under
 * `ctest -j`, and all of them share ::testing::TempDir(). A name built
 * from the full test name (suite and test) and the process id cannot
 * collide with a sibling test, nor with a second concurrent run of the
 * same test. Every fixture that writes a file goes through here.
 */
#ifndef MITHRIL_TESTS_TESTUTIL_SCRATCH_PATH_H
#define MITHRIL_TESTS_TESTUTIL_SCRATCH_PATH_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace mithril::testutil {

/**
 * `TempDir()/<stem>_<Suite>.<Test>_<pid><ext>` for the running test.
 * Characters a parameterized test name may carry ('/') become '_'.
 */
inline std::string
scratchPath(std::string_view stem, std::string_view ext = ".img")
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info == nullptr
                           ? std::string("no_test")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    for (char &c : test) {
        if (c == '/') {
            c = '_';
        }
    }
    std::string path = ::testing::TempDir();
    path += stem;
    path += '_';
    path += test;
    path += '_';
    path += std::to_string(::getpid());
    path += ext;
    return path;
}

} // namespace mithril::testutil

#endif // MITHRIL_TESTS_TESTUTIL_SCRATCH_PATH_H
