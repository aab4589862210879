//===--- SupportTest.cpp - Tests for the support library ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

using namespace mix;

TEST(SourceLocTest, InvalidByDefault) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocTest, Formatting) {
  SourceLoc Loc(3, 14);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "3:14");
}

TEST(SourceLocTest, Ordering) {
  EXPECT_LT(SourceLoc(1, 9), SourceLoc(2, 1));
  EXPECT_LT(SourceLoc(2, 1), SourceLoc(2, 2));
  EXPECT_FALSE(SourceLoc(2, 2) < SourceLoc(2, 2));
}

TEST(DiagnosticsTest, CountsBySeverity) {
  DiagnosticEngine Diags;
  EXPECT_TRUE(Diags.empty());
  Diags.error({1, 1}, "bad");
  Diags.warning({2, 1}, "iffy");
  Diags.note({2, 2}, "because");
  EXPECT_EQ(Diags.size(), 3u);
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(DiagnosticsTest, Rendering) {
  DiagnosticEngine Diags;
  Diags.error({1, 2}, "something went wrong");
  EXPECT_EQ(Diags.diagnostics()[0].str(), "1:2: error: something went wrong");
}

TEST(DiagnosticsTest, ClearResetsCounts) {
  DiagnosticEngine Diags;
  Diags.error({1, 1}, "x");
  Diags.clear();
  EXPECT_TRUE(Diags.empty());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DiagnosticsTest, DropRepeatedWarningsKeepsTheFirstWithItsNotes) {
  DiagnosticEngine Diags;
  Diags.warning({9, 9}, "before"); // ahead of From: never dropped
  Diags.warning({9, 9}, "before");
  Diags.warning({1, 2}, "w");
  Diags.note({3, 4}, "first note");
  Diags.error({5, 6}, "e");
  Diags.warning({1, 2}, "w"); // a repeat, with its note
  Diags.note({7, 8}, "repeat note");
  Diags.warning({1, 2}, "other message");
  Diags.note({9, 1}, "kept note");
  Diags.warning({9, 9}, "before");
  Diags.dropRepeatedWarnings(1);
  EXPECT_EQ(Diags.str(), "9:9: warning: before\n"
                         "9:9: warning: before\n"
                         "1:2: warning: w\n"
                         "3:4: note: first note\n"
                         "5:6: error: e\n"
                         "1:2: warning: other message\n"
                         "9:1: note: kept note\n");
  EXPECT_EQ(Diags.warningCount(), 4u);
  EXPECT_EQ(Diags.errorCount(), 1u);
  // Notes still point at their warnings after the shift.
  EXPECT_EQ(Diags.notesFor(2), std::vector<size_t>{3});
  EXPECT_EQ(Diags.notesFor(5), std::vector<size_t>{6});
}

TEST(StringExtrasTest, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringExtrasTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(startsWith("anything", ""));
}

TEST(StringExtrasTest, Split) {
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringExtrasTest, Trim) {
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}
