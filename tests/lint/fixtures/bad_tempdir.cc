// Known-bad fixture: scratch files named by hand in the shared
// TempDir(). Every test process under `ctest -j` shares that directory;
// only testutil::scratchPath() names files that cannot collide.
#include <gtest/gtest.h>

#include <string>

std::string
imagePath()
{
    return ::testing::TempDir() + "fixed_name.img";  // line 11: scratch-path
}

std::string
journalPath()
{
    std::string dir = testing::TempDir();  // line 17: scratch-path
    return dir + "journal.img";
}

// Naming TempDir() in a comment is not a call: line 21 stays clean.
