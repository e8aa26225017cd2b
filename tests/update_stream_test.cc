// The `serve --stream` update parser (serve/update_stream.h): the line
// grammar ("+|- src dst rel", '#' comments, blank lines, CRLF), every
// malformed shape it must refuse — including input after the relation
// field, which a bare `>>` chain silently ignores — the "<source>:<line>:"
// messages the CLI prints, and a seeded mutant sweep that may only ever
// produce an update or a Status.

#include <algorithm>
#include <climits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/update_stream.h"

namespace umgad {
namespace serve {
namespace {

EdgeUpdate ParseOk(const std::string& line) {
  Result<std::optional<EdgeUpdate>> parsed = ParseUpdateLine(line);
  EXPECT_TRUE(parsed.ok()) << "'" << line << "': "
                           << parsed.status().ToString();
  EXPECT_TRUE(parsed.ok() && parsed->has_value()) << "'" << line << "'";
  return parsed.ok() && parsed->has_value() ? **parsed : EdgeUpdate{};
}

void ExpectRejected(const std::string& line) {
  Result<std::optional<EdgeUpdate>> parsed = ParseUpdateLine(line);
  ASSERT_FALSE(parsed.ok()) << "accepted '" << line << "'";
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

/// Replays `text`, collecting every delivered update.
Result<int64_t> Replay(const std::string& text,
                       std::vector<EdgeUpdate>* seen) {
  std::istringstream in(text);
  return ReplayUpdateStream(in, "stream", [&](const EdgeUpdate& u) {
    seen->push_back(u);
    return Status::OK();
  });
}

TEST(UpdateStreamTest, ParsesInsertsAndRemovals) {
  const EdgeUpdate add = ParseOk("+ 1 2 0");
  EXPECT_TRUE(add.add);
  EXPECT_EQ(add.src, 1);
  EXPECT_EQ(add.dst, 2);
  EXPECT_EQ(add.relation, 0);
  const EdgeUpdate remove = ParseOk("\t-   7\t3 2  ");
  EXPECT_FALSE(remove.add);
  EXPECT_EQ(remove.src, 7);
  EXPECT_EQ(remove.dst, 3);
  EXPECT_EQ(remove.relation, 2);
  EXPECT_EQ(ParseOk("+ 2147483647 0 0").src, INT_MAX);
}

TEST(UpdateStreamTest, CommentAndBlankLinesCarryNoUpdate) {
  for (const std::string line : {"", "   ", "\t", "\r", "# a comment",
                                 "   # indented comment", "#+ 1 2 0"}) {
    Result<std::optional<EdgeUpdate>> parsed = ParseUpdateLine(line);
    ASSERT_TRUE(parsed.ok()) << "'" << line << "'";
    EXPECT_FALSE(parsed->has_value()) << "'" << line << "'";
  }
  std::vector<EdgeUpdate> seen;
  Result<int64_t> n = Replay("# header\n\n+ 1 2 0\n   \n- 1 2 0\n", &seen);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].add);
  EXPECT_FALSE(seen[1].add);
}

TEST(UpdateStreamTest, AcceptsCrlfLineEndings) {
  const EdgeUpdate u = ParseOk("- 4 5 1\r");
  EXPECT_EQ(u.relation, 1);
  std::vector<EdgeUpdate> seen;
  Result<int64_t> n =
      Replay("# windows export\r\n+ 1 2 0\r\n\r\n- 3 4 1\r\n", &seen);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 2);
}

TEST(UpdateStreamTest, RejectsBadOp) {
  for (const std::string line :
       {"* 1 2 0", "++ 1 2 0", "add 1 2 0", "1 2 0 +", "+1 2 0"}) {
    ExpectRejected(line);
  }
}

TEST(UpdateStreamTest, RejectsMissingField) {
  for (const std::string line : {"+", "+ 1", "+ 1 2", "- 1 2\r"}) {
    ExpectRejected(line);
  }
}

TEST(UpdateStreamTest, RejectsIdAboveIntMax) {
  ExpectRejected("+ 2147483648 1 0");
  ExpectRejected("+ 1 99999999999999999999 0");
  ExpectRejected("- 1 2 4294967296");
}

TEST(UpdateStreamTest, RejectsNegativeId) {
  ExpectRejected("+ -1 2 0");
  ExpectRejected("+ 1 -2 0");
  ExpectRejected("- 1 2 -1");
  ExpectRejected("+ -2147483648 2 0");
}

TEST(UpdateStreamTest, RejectsTrailingInput) {
  // A fifth field, or junk glued to the relation, must not be silently
  // read as relation 0.
  ExpectRejected("+ 1 2 0 7");
  ExpectRejected("+ 1 2 0x");
  ExpectRejected("- 1 2 0 # trailing comment");
  ExpectRejected("+ 1 2 0.5");
  ExpectRejected("+ 1 2 0\r7");
  // Fields must be blank-separated: "0+0" is not two ids.
  ExpectRejected("- 0+0 0");
  ExpectRejected("+ 1 2-3");
}

TEST(UpdateStreamTest, ErrorsNameTheSourceAndLine) {
  std::vector<EdgeUpdate> seen;
  Result<int64_t> bad = Replay("+ 1 2 0\n# note\n+ 1 2 0 7\n+ 3 4 0\n", &seen);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message().rfind("stream:3: ", 0), 0u)
      << bad.status().message();
  EXPECT_NE(bad.status().message().find("+ 1 2 0 7"), std::string::npos);
  // Updates before the bad line were delivered; none after it.
  EXPECT_EQ(seen.size(), 1u);

  // An apply failure keeps its code and is quoted in full.
  std::istringstream in("+ 1 2 0\n\n- 5 6 1\n");
  Result<int64_t> rejected =
      ReplayUpdateStream(in, "s.txt", [](const EdgeUpdate& u) {
        return u.add ? Status::OK() : Status::OutOfRange("no such edge");
      });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(rejected.status().message(),
            "s.txt:3: " + Status::OutOfRange("no such edge").ToString());
}

TEST(UpdateStreamTest, SeededMutantsOnlyYieldAStatus) {
  // Byte flips, deletions and insertions over a valid stream. Every line
  // must come back as an update, a no-op line or a Status, and an accepted
  // line must have been read whole.
  const std::string valid =
      "# stream\n+ 1 2 0\n- 10 20 1\r\n\n+ 2147483647 3 2\n- 0 0 0\n";
  const std::string alphabet = "+-# \t\r0123456789x.\n";
  Rng rng(0x57AE4ULL);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutant = valid;
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      const size_t at = static_cast<size_t>(rng.UniformInt(mutant.size()));
      const char c = alphabet[rng.UniformInt(alphabet.size())];
      switch (rng.UniformInt(3)) {
        case 0: mutant[at] = c; break;
        case 1: mutant.erase(at, 1); break;
        default: mutant.insert(at, 1, c); break;
      }
    }
    std::istringstream lines(mutant);
    std::string line;
    while (std::getline(lines, line)) {
      Result<std::optional<EdgeUpdate>> parsed = ParseUpdateLine(line);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
        ++rejected;
        continue;
      }
      if (!parsed->has_value()) continue;
      // Independent oracle: an accepted line is exactly four blank-separated
      // tokens, and the three ids are the non-negative numbers they spell.
      const EdgeUpdate& u = **parsed;
      std::istringstream tokens(line);
      std::vector<std::string> t;
      for (std::string w; tokens >> w;) t.push_back(w);
      ASSERT_EQ(t.size(), 4u) << "accepted '" << line << "'";
      EXPECT_EQ(t[0], u.add ? "+" : "-");
      EXPECT_EQ(std::stoll(t[1]), u.src);
      EXPECT_EQ(std::stoll(t[2]), u.dst);
      EXPECT_EQ(std::stoll(t[3]), u.relation);
      EXPECT_GE(std::min({u.src, u.dst, u.relation}), 0);
      ++accepted;
    }
    std::vector<EdgeUpdate> seen;
    Result<int64_t> n = Replay(mutant, &seen);
    if (n.ok()) {
      EXPECT_EQ(*n, static_cast<int64_t>(seen.size()));
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace serve
}  // namespace umgad
