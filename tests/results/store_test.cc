/** @file Tests of atomicWriteFile(), the temp-file-and-rename write
 *  every JSON sink (reports, traces, sweepbench results) goes
 *  through. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "results/store.hh"

namespace stms::results
{
namespace
{

namespace fs = std::filesystem;

/** Fresh directory per test, removed on teardown. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("stms_store_test_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(StoreTest, AtomicWriteLeavesNoTempBehind)
{
    fs::create_directories(dir_);
    const std::string path = (fs::path(dir_) / "out.json").string();
    ASSERT_TRUE(atomicWriteFile(path, "{\"ok\": true}\n"));
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"ok\": true}\n");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    // Overwrite is atomic too.
    ASSERT_TRUE(atomicWriteFile(path, "2"));
    std::ifstream again(path);
    std::string content2((std::istreambuf_iterator<char>(again)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(content2, "2");
}

} // namespace
} // namespace stms::results
