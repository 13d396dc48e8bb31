// Seeded mutation fuzz of the graph readers, the library's trust boundary.
//
// Valid PGRB, AdjacencyGraph and EdgeArray files are mutated by
// xoshiro-driven bit flips, truncations and header edits. Every mutant must
// either be rejected with CheckFailure or parse into a graph validate_csr
// accepts: never another exception (bad_alloc included), never a crash.
// The binary reader hands canonical tables to the CSR builder without
// normalizing them, so this also guards the builder's precondition.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "parallel/arch.hpp"
#include "random/xoshiro.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerFormat = 600;

using Bytes = std::string;

class ReaderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("pargreedy_fuzz_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path file(const std::string& name) const { return dir_ / name; }

  static Bytes slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
  }

  // Writes every mutant of `seed` to one file and reads it back through
  // `read`, which returns the parsed graph.
  void fuzz(const Bytes& seed, const std::string& name, uint64_t rng_seed,
            const std::function<Bytes(Bytes, Xoshiro256&)>& header_edit,
            const std::function<CsrGraph(const fs::path&)>& read) {
    Xoshiro256 rng(rng_seed);
    int rejected = 0;
    int parsed = 0;
    for (int k = 0; k < kMutantsPerFormat; ++k) {
      Bytes mutant = seed;
      switch (k % 4) {
        case 0:  // 1 to 4 bit flips
          for (uint64_t f = 1 + rng.range(4); f > 0; --f)
            mutant[rng.range(mutant.size())] ^=
                static_cast<char>(1u << rng.range(8));
          break;
        case 1:  // truncation
          mutant.resize(rng.range(mutant.size()));
          break;
        case 2:  // header edit
          mutant = header_edit(std::move(mutant), rng);
          break;
        default:  // a run of random bytes overwritten
          for (uint64_t i = rng.range(mutant.size()), len = 1 + rng.range(8);
               len > 0 && i < mutant.size(); --len, ++i)
            mutant[i] = static_cast<char>(rng.range(256));
          break;
      }
      {
        std::ofstream out(file(name), std::ios::binary | std::ios::trunc);
        out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
      }
      SCOPED_TRACE(name + " mutant " + std::to_string(k));
      try {
        const CsrGraph g = read(file(name));
        const std::vector<std::string> problems = validate_csr(g);
        EXPECT_TRUE(problems.empty()) << problems.front();
        ++parsed;
      } catch (const CheckFailure&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "escaped as " << typeid(e).name() << ": "
                      << e.what();
      }
    }
    // Both outcomes occur, so the mutations neither miss the checks nor
    // only ever break the magic.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(parsed, 0);
  }

  static CsrGraph seed_graph() {
    return CsrGraph::from_edges(random_graph_nm(60, 150, 9));
  }

  fs::path dir_;
};

// Overwrites one decimal token of a text file (the first few are the
// header) with a value chosen to probe the readers' bounds.
Bytes edit_text_token(Bytes text, Xoshiro256& rng, int header_tokens) {
  static const char* const kValues[] = {
      "0",          "1",          "59",         "60",
      "61",         "300",        "1048576",    "1048577",
      "2147483648", "4294967295", "4294967296", "18446744073709551615",
      "-1",         "99999999999999999999999", "x"};
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // (pos, len)
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] >= '0' && text[i] <= '9') {
      std::size_t j = i;
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
      tokens.emplace_back(i, j - i);
      i = j;
    } else {
      ++i;
    }
  }
  if (tokens.empty()) return text;
  // Half the edits hit the header, half any token.
  const auto header = static_cast<std::size_t>(header_tokens);
  const std::size_t limit =
      rng.range(2) == 0 && tokens.size() > header ? header : tokens.size();
  const auto [pos, len] = tokens[rng.range(limit)];
  text.replace(pos, len, kValues[rng.range(std::size(kValues))]);
  return text;
}

TEST_F(ReaderFuzz, BinaryMutantsThrowOrValidate) {
  ScopedNumWorkers guard(2);
  write_binary_graph(file("seed.pgrb"), seed_graph());
  const Bytes seed = slurp(file("seed.pgrb"));
  const auto header_edit = [](Bytes b, Xoshiro256& rng) {
    static const uint64_t kValues[] = {0,
                                       1,
                                       59,
                                       61,
                                       149,
                                       151,
                                       uint64_t{1} << 20,
                                       (uint64_t{1} << 20) + 1,
                                       uint64_t{1} << 31,
                                       0xffffffffULL,
                                       uint64_t{1} << 32,
                                       ~uint64_t{0}};
    // n at byte 4, m at byte 12.
    const uint64_t v = rng.range(4) == 0
                           ? rng()
                           : kValues[rng.range(std::size(kValues))];
    std::memcpy(b.data() + (rng.range(2) == 0 ? 4 : 12), &v, sizeof v);
    return b;
  };
  fuzz(seed, "m.pgrb", 101, header_edit,
       [](const fs::path& p) { return read_binary_graph(p); });
}

TEST_F(ReaderFuzz, AdjacencyMutantsThrowOrValidate) {
  ScopedNumWorkers guard(2);
  write_adjacency_graph(file("seed.adj"), seed_graph());
  const Bytes seed = slurp(file("seed.adj"));
  fuzz(
      seed, "m.adj", 202,
      [](Bytes b, Xoshiro256& rng) {
        return edit_text_token(std::move(b), rng, 2);
      },
      [](const fs::path& p) { return read_adjacency_graph(p); });
}

TEST_F(ReaderFuzz, EdgeListMutantsThrowOrValidate) {
  ScopedNumWorkers guard(2);
  const CsrGraph g = seed_graph();
  write_edge_list(file("seed.txt"),
                  EdgeList(g.num_vertices(),
                           UninitVector<Edge>(g.edges().begin(),
                                              g.edges().end())));
  const Bytes seed = slurp(file("seed.txt"));
  fuzz(
      seed, "m.txt", 303,
      [](Bytes b, Xoshiro256& rng) {
        return edit_text_token(std::move(b), rng, 2);
      },
      [](const fs::path& p) {
        return CsrGraph::from_edges(read_edge_list(p));
      });
}

}  // namespace
}  // namespace pargreedy
