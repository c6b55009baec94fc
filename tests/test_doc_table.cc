/**
 * @file
 * Unit tests for the document table (index/doc_table.hh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "index/doc_table.hh"

namespace dsearch {
namespace {

TEST(DocTable, StartsEmpty)
{
    DocTable table;
    EXPECT_EQ(table.docCount(), 0u);
    EXPECT_FALSE(table.contains(0));
}

TEST(DocTable, AddAssignsDenseIds)
{
    DocTable table;
    EXPECT_EQ(table.add("/a", 10), 0u);
    EXPECT_EQ(table.add("/b", 20), 1u);
    EXPECT_EQ(table.add("/c", 30), 2u);
    EXPECT_EQ(table.docCount(), 3u);
}

TEST(DocTable, LookupByDocId)
{
    DocTable table;
    table.add("/path/x.txt", 123);
    EXPECT_EQ(table.path(0), "/path/x.txt");
    EXPECT_EQ(table.sizeBytes(0), 123u);
    EXPECT_TRUE(table.contains(0));
    EXPECT_FALSE(table.contains(1));
}


std::string
pathOf(std::size_t i)
{
    return "/dir/file" + std::to_string(i) + ".txt";
}

/** A table of @p n documents: pathOf(i), size i * 3. */
DocTable
tableOf(std::size_t n)
{
    DocTable table;
    for (std::size_t i = 0; i < n; ++i)
        table.add(pathOf(i), i * 3);
    return table;
}

/** Expect @p table to hold exactly tableOf(n)'s entries. */
void
expectTableOf(const DocTable &table, std::size_t n)
{
    ASSERT_EQ(table.docCount(), n);
    for (std::size_t i = 0; i < n; ++i) {
        DocId doc = static_cast<DocId>(i);
        ASSERT_EQ(table.path(doc), pathOf(i)) << "doc " << i;
        ASSERT_EQ(table.sizeBytes(doc), i * 3) << "doc " << i;
    }
    EXPECT_FALSE(table.contains(static_cast<DocId>(n)));
}

TEST(DocTable, FromFileList)
{
    // Spans two full chunks and a partial tail.
    FileList files;
    for (std::size_t i = 0; i < 600; ++i) {
        FileEntry entry;
        entry.doc = static_cast<DocId>(i);
        entry.path = pathOf(i);
        entry.size = i * 3;
        files.push_back(std::move(entry));
    }
    DocTable table = DocTable::fromFileList(files);
    expectTableOf(table, 600);
    table.add(pathOf(600), 1800);
    expectTableOf(table, 601);
}

TEST(DocTable, CopyIsUnchangedByAppendsAcrossChunkBoundaries)
{
    static_assert(DocTable::chunk_docs == 256);
    // Copies taken with a partial tail (255), right at a sealed
    // boundary (256) and one past it (257), each followed by appends
    // that fill and seal further chunks in the original.
    for (std::size_t before : {0u, 1u, 255u, 256u, 257u, 511u, 512u}) {
        for (std::size_t appended : {1u, 2u, 255u, 256u, 257u}) {
            DocTable original = tableOf(before);
            DocTable copy = original;
            for (std::size_t i = before; i < before + appended; ++i)
                EXPECT_EQ(original.add(pathOf(i), i * 3), i);
            SCOPED_TRACE("before " + std::to_string(before)
                         + ", appended " + std::to_string(appended));
            expectTableOf(copy, before);
            expectTableOf(original, before + appended);
        }
    }
}

TEST(DocTable, CopyCanAppendIndependently)
{
    DocTable original = tableOf(300);
    DocTable copy = original;
    copy.add("/only/in/copy", 1);
    original.add(pathOf(300), 900);
    EXPECT_EQ(copy.path(300), "/only/in/copy");
    expectTableOf(original, 301);
    EXPECT_EQ(copy.path(299), pathOf(299));
}

TEST(DocTable, ReadersOfACopyRunWhileTheOriginalAppends)
{
    // The live index's pattern: the writer keeps appending to its
    // table while queries read the copy published with an earlier
    // generation. Run under TSan (check_tsan_live_index).
    DocTable original = tableOf(700);
    const DocTable published = original;
    std::atomic<bool> done{false};
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            do {
                for (std::size_t i = 0; i < 700; ++i) {
                    DocId doc = static_cast<DocId>(i);
                    if (published.path(doc) != pathOf(i)
                        || published.sizeBytes(doc) != i * 3)
                        mismatches.fetch_add(1);
                }
            } while (!done.load());
        });
    }
    for (std::size_t i = 700; i < 2000; ++i) {
        original.add(pathOf(i), i * 3);
        if (i % 100 == 0) {
            DocTable snapshot = original; // copy while readers run
            EXPECT_EQ(snapshot.docCount(), i + 1);
        }
    }
    done.store(true);
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(mismatches.load(), 0u);
    expectTableOf(published, 700);
    expectTableOf(original, 2000);
}

TEST(DocTableDeath, NonDenseFileListPanics)
{
    FileList files;
    FileEntry entry;
    entry.doc = 7; // should be 0
    entry.path = "/x";
    files.push_back(entry);
    EXPECT_DEATH(DocTable::fromFileList(files), "non-dense");
}

TEST(DocTableDeath, OutOfRangeLookupPanics)
{
    DocTable table;
    table.add("/a", 1);
    EXPECT_DEATH((void)table.path(1), "out of range");
    EXPECT_DEATH((void)table.sizeBytes(9), "out of range");

    DocTable chunked = tableOf(300);
    EXPECT_DEATH((void)chunked.path(300), "out of range");
}

} // namespace
} // namespace dsearch
