#include <algorithm>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/csv.h"
#include "src/common/hash.h"
#include "src/common/net.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace rock {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing rule");
}

TEST(StatusTest, ConflictCodeExists) {
  Status s = Status::Conflict("t1 < t2 and t2 < t1");
  EXPECT_EQ(s.code(), StatusCode::kConflict);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MovableValue) {
  Result<std::string> r = std::string("hello");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingle) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrips) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ToLowerAndAffixes) {
  EXPECT_EQ(ToLower("IPhone 14"), "iphone 14");
  EXPECT_TRUE(StartsWith("transaction", "trans"));
  EXPECT_FALSE(StartsWith("tr", "trans"));
  EXPECT_TRUE(EndsWith("store.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringsTest, TokenizeLowersAndSplitsOnPunct) {
  auto toks = Tokenize("IPhone 14 (Discount ID 41)");
  std::vector<std::string> expected = {"iphone", "14", "discount", "id", "41"};
  EXPECT_EQ(toks, expected);
}

TEST(StringsTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("", "xyz"), 3);
}

TEST(StringsTest, EditSimilarityRange) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_GT(EditSimilarity("smith", "smyth"), 0.7);
  EXPECT_LT(EditSimilarity("abc", "xyz"), 0.01);
}

TEST(StringsTest, JaroWinklerFavorsSharedPrefix) {
  EXPECT_DOUBLE_EQ(JaroWinkler("martha", "martha"), 1.0);
  double jw1 = JaroWinkler("martha", "marhta");
  EXPECT_GT(jw1, 0.94);
  // Different strings entirely.
  EXPECT_LT(JaroWinkler("abc", "xyz"), 0.1);
  // Prefix boost: marth~ closer than ~artha rearrangements.
  EXPECT_GT(JaroWinkler("prefixed", "prefixes"),
            JaroWinkler("prefixed", "refixedp"));
}

TEST(StringsTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "a b c"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_NEAR(TokenJaccard("apple store", "apple shop"), 1.0 / 3.0, 1e-9);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(HashTest, Crc32KnownVector) {
  // Standard test vector for CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(HashTest, Hash64Disperses) {
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(Hash64("key" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, MixHashChangesValue) {
  EXPECT_NE(MixHash64(1), MixHash64(2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, WeightedRespectsZeroWeight) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextWeighted(weights), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(CsvTest, ParsesSimpleTable) {
  auto table = CsvTable::Parse("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][1], "4");
}

TEST(CsvTest, HandlesQuotedFields) {
  auto table = CsvTable::Parse("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "Smith, John");
  EXPECT_EQ(table->rows[0][1], "said \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  auto table = CsvTable::Parse("a,b\n1\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto table = CsvTable::Parse("a\n\"oops\n");
  EXPECT_FALSE(table.ok());
}

TEST(CsvTest, RoundTrips) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{"1", "a,b"}, {"2", "line\nbreak"}};
  auto parsed = CsvTable::Parse(t.ToCsv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, t.rows);
}

TEST(CsvTest, MissingFileIsNotFound) {
  auto table = CsvTable::ReadFile("/nonexistent/file.csv");
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Vectorized kernel equivalence: the SWAR fast paths in strings.cc must be
// bitwise identical to straightforward reference formulations.

namespace reference {

int EditDistanceDp(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<int> prev(n + 1), cur(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = static_cast<int>(i);
  for (size_t j = 1; j <= m; ++j) {
    cur[0] = static_cast<int>(j);
    for (size_t i = 1; i <= n; ++i) {
      int sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double JaroWinklerFlags(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);
  std::vector<bool> matched_a(la, false), matched_b(lb, false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!matched_b[j] && a[i] == b[j]) {
        matched_a[i] = matched_b[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = matches;
  double jaro = (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
  int prefix = 0;
  for (int i = 0; i < std::min({la, lb, 4}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

double TokenJaccardSets(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = Tokenize(a);
  std::vector<std::string> tb = Tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  std::unordered_set<std::string> sa(ta.begin(), ta.end());
  std::unordered_set<std::string> sb(tb.begin(), tb.end());
  size_t inter = 0;
  for (const auto& tok : sa) inter += sb.count(tok);
  size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

std::string RandomWord(Rng& rng, size_t max_len, int alphabet) {
  std::string out;
  const size_t len = rng.NextBounded(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(
        static_cast<char>('a' + rng.NextBounded(
                                    static_cast<uint64_t>(alphabet))));
  }
  return out;
}

}  // namespace reference

TEST(StringsTest, MyersEditDistanceMatchesDpReference) {
  // Hand cases around the 64-char word boundary and then a fuzz sweep.
  std::string sixty_four(64, 'a');
  std::string sixty_five(65, 'a');
  EXPECT_EQ(EditDistance(sixty_four, sixty_five), 1);
  EXPECT_EQ(EditDistance(sixty_four, sixty_four), 0);
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    // Small alphabet maximizes repeated characters (the peq-mask stress).
    std::string a = reference::RandomWord(rng, 70, 4);
    std::string b = reference::RandomWord(rng, 70, 4);
    ASSERT_EQ(EditDistance(a, b), reference::EditDistanceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(StringsTest, SwarJaroWinklerMatchesFlagReferenceBitwise) {
  Rng rng(11);
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = reference::RandomWord(rng, 70, 5);
    std::string b = reference::RandomWord(rng, 70, 5);
    const double got = JaroWinkler(a, b);
    const double want = reference::JaroWinklerFlags(a, b);
    // Bitwise, not approximate: the SWAR path must pick the same matches.
    ASSERT_EQ(got, want) << "a=" << a << " b=" << b;
  }
}

TEST(StringsTest, MergeTokenJaccardMatchesSetReference) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    std::string a, b;
    for (uint64_t w = rng.NextBounded(6); w > 0; --w) {
      a += reference::RandomWord(rng, 5, 3) + " ";
    }
    for (uint64_t w = rng.NextBounded(6); w > 0; --w) {
      b += reference::RandomWord(rng, 5, 3) + " ";
    }
    ASSERT_EQ(TokenJaccard(a, b), reference::TokenJaccardSets(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(StringsTest, SortedUniqueTokensSortsAndDedups) {
  auto toks = SortedUniqueTokens("Beta alpha BETA gamma alpha");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "alpha");
  EXPECT_EQ(toks[1], "beta");
  EXPECT_EQ(toks[2], "gamma");
  EXPECT_TRUE(SortedUniqueTokens("").empty());
}

TEST(StringsTest, PreTokenizedEntryPointsMatchStringEntryPoints) {
  const char* samples[] = {"apple store",     "apple shop",
                           "Galaxy S21 5G",   "galaxy s21",
                           "one two two three", ""};
  for (const char* a : samples) {
    for (const char* b : samples) {
      EXPECT_EQ(TokenJaccard(a, b),
                TokenJaccardSorted(SortedUniqueTokens(a),
                                   SortedUniqueTokens(b)));
      EXPECT_EQ(SoftTokenSimilarity(a, b),
                SoftTokenSimilarityTokens(Tokenize(a), Tokenize(b)));
    }
  }
}

TEST(NetTest, EphemeralListenerIsReachable) {
  int port = 0;
  Result<net::Socket> listener = net::ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(port, 0);
  Result<net::Socket> client = net::ConnectLoopback(port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  net::Socket server = net::AcceptWithTimeout(*listener, 1000);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(net::SendAll(*client, "ping").ok());
  char buf[4];
  EXPECT_EQ(net::Recv(server, buf, sizeof(buf)), 4);
  EXPECT_EQ(std::string_view(buf, sizeof(buf)), "ping");
}

TEST(NetTest, SendAllToClosedPeerFailsWithoutSigpipe) {
  int port = 0;
  Result<net::Socket> listener = net::ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok());
  Result<net::Socket> client = net::ConnectLoopback(port);
  ASSERT_TRUE(client.ok());
  net::AcceptWithTimeout(*listener, 1000).Close();
  // The first write may still land in the kernel buffer; the peer's RST
  // makes a later one fail. Without MSG_NOSIGNAL that failure is SIGPIPE.
  const std::string chunk(64 * 1024, 'x');
  Status sent = Status::Ok();
  for (int attempt = 0; attempt < 100 && sent.ok(); ++attempt) {
    sent = net::SendAll(*client, chunk);
    if (sent.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(sent.ok());
  EXPECT_NE(sent.message().find("send()"), std::string::npos)
      << sent.message();
}

TEST(NetTest, ConnectRefusedNamesTheAddress) {
  int port = 0;
  {
    Result<net::Socket> listener = net::ListenLoopback(0, &port);
    ASSERT_TRUE(listener.ok());
  }  // closed: nobody listens on `port` any more
  Result<net::Socket> client = net::ConnectLoopback(port);
  ASSERT_FALSE(client.ok());
  EXPECT_NE(client.status().message().find("127.0.0.1:" +
                                           std::to_string(port)),
            std::string::npos)
      << client.status().message();
}

}  // namespace
}  // namespace rock
