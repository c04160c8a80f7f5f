/// Property tests for the byte-range lease algebra (pfs/cache.hpp
/// TokenManager): overlap detection, range subtraction, and revocation are
/// checked against a brute-force per-byte reference that tracks, for every
/// byte, which client holds it in which mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "pfs/cache.hpp"

namespace {

using s3asim::pfs::FileHandle;
using s3asim::pfs::FileToken;
using s3asim::pfs::TokenManager;
using s3asim::pfs::TokenMode;

constexpr std::uint64_t kDomain = 256;  // bytes modeled by the reference

/// Per-byte ground truth: byte → (client → mode).  Read leases may share a
/// byte across clients; a write lease is exclusive.
class ByteReference {
 public:
  [[nodiscard]] bool covered(std::uint32_t client, TokenMode mode,
                             std::uint64_t begin, std::uint64_t end) const {
    for (std::uint64_t byte = begin; byte < end; ++byte) {
      const auto holders = bytes_.find(byte);
      if (holders == bytes_.end()) return false;
      const auto held = holders->second.find(client);
      if (held == holders->second.end()) return false;
      if (mode == TokenMode::Write && held->second != TokenMode::Write)
        return false;
    }
    return true;
  }

  /// Mirrors TokenManager::acquire: the client's coverage of [begin, end)
  /// becomes `mode`; conflicting foreign holders lose the range.  Returns
  /// each victim's revoked byte set.
  std::map<std::uint32_t, std::set<std::uint64_t>> acquire(
      std::uint32_t client, TokenMode mode, std::uint64_t begin,
      std::uint64_t end) {
    std::map<std::uint32_t, std::set<std::uint64_t>> revoked;
    for (std::uint64_t byte = begin; byte < end; ++byte) {
      auto& holders = bytes_[byte];
      for (auto it = holders.begin(); it != holders.end();) {
        if (it->first != client &&
            (it->second == TokenMode::Write || mode == TokenMode::Write)) {
          revoked[it->first].insert(byte);
          it = holders.erase(it);
        } else {
          ++it;
        }
      }
      holders[client] = mode;
    }
    return revoked;
  }

  void release_client(std::uint32_t client) {
    for (auto& [byte, holders] : bytes_) holders.erase(client);
  }

  /// The mode `client` holds `byte` in, if any.
  [[nodiscard]] std::optional<TokenMode> mode_at(std::uint32_t client,
                                                 std::uint64_t byte) const {
    const auto holders = bytes_.find(byte);
    if (holders == bytes_.end()) return std::nullopt;
    const auto held = holders->second.find(client);
    if (held == holders->second.end()) return std::nullopt;
    return held->second;
  }

  /// `client`'s canonical leases: its maximal same-mode runs, ascending.
  [[nodiscard]] std::vector<FileToken> runs(std::uint32_t client) const {
    std::vector<FileToken> out;
    for (std::uint64_t byte = 0; byte < kDomain; ++byte) {
      const std::optional<TokenMode> mode = mode_at(client, byte);
      if (!mode) continue;
      if (!out.empty() && out.back().end == byte && out.back().mode == *mode) {
        ++out.back().end;
      } else {
        out.push_back(FileToken{byte, byte + 1, *mode, client});
      }
    }
    return out;
  }

  [[nodiscard]] const std::map<std::uint64_t,
                               std::map<std::uint32_t, TokenMode>>&
  bytes() const {
    return bytes_;
  }

 private:
  std::map<std::uint64_t, std::map<std::uint32_t, TokenMode>> bytes_;
};

/// The byte set a revocation list covers, per victim.
std::map<std::uint32_t, std::set<std::uint64_t>> revocation_bytes(
    std::span<const TokenManager::Revocation> revocations) {
  std::map<std::uint32_t, std::set<std::uint64_t>> out;
  for (const TokenManager::Revocation& revocation : revocations)
    for (std::uint64_t byte = revocation.begin; byte < revocation.end; ++byte)
      out[revocation.client].insert(byte);
  return out;
}

/// Each victim's maximal contiguous runs of revoked bytes: the revocations
/// one grant owes, merged per victim.
std::uint64_t revocation_runs(
    const std::map<std::uint32_t, std::set<std::uint64_t>>& revoked) {
  std::uint64_t runs = 0;
  for (const auto& [client, bytes] : revoked) {
    std::optional<std::uint64_t> previous;
    for (const std::uint64_t byte : bytes) {
      if (!previous || *previous + 1 != byte) ++runs;
      previous = byte;
    }
  }
  return runs;
}

/// One client's leases in the manager, ascending.
std::vector<FileToken> client_tokens(const TokenManager& manager,
                                     FileHandle file, std::uint32_t client) {
  std::vector<FileToken> out;
  for (const FileToken& token : manager.file_tokens(file))
    if (token.client == client) out.push_back(token);
  std::sort(out.begin(), out.end(),
            [](const FileToken& a, const FileToken& b) {
              return a.begin < b.begin;
            });
  return out;
}

/// One client's tokens must never overlap each other.
void expect_disjoint_per_client(const TokenManager& manager, FileHandle file) {
  std::map<std::uint32_t, std::set<std::uint64_t>> seen;
  for (const FileToken& token : manager.file_tokens(file)) {
    ASSERT_LT(token.begin, token.end);
    for (std::uint64_t byte = token.begin; byte < token.end; ++byte) {
      EXPECT_TRUE(seen[token.client].insert(byte).second)
          << "client " << token.client << " holds byte " << byte << " twice";
    }
  }
}

TEST(TokenManagerTest, GrantThenCovered) {
  TokenManager manager;
  EXPECT_FALSE(manager.covered(0, 1, TokenMode::Write, 0, 64));
  EXPECT_TRUE(manager.acquire(0, 1, TokenMode::Write, 0, 64).empty());
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Write, 0, 64));
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Write, 16, 32));
  // A write lease satisfies a read request, not vice versa.
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Read, 0, 64));
  EXPECT_TRUE(manager.acquire(0, 2, TokenMode::Read, 64, 128).empty());
  EXPECT_FALSE(manager.covered(0, 2, TokenMode::Write, 64, 128));
}

TEST(TokenManagerTest, AdjacentGrantsCoalesce) {
  TokenManager manager;
  (void)manager.acquire(0, 1, TokenMode::Write, 0, 64);
  (void)manager.acquire(0, 1, TokenMode::Write, 64, 128);
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Write, 0, 128));
  ASSERT_EQ(manager.file_tokens(0).size(), 1u);
  EXPECT_EQ(manager.file_tokens(0)[0].begin, 0u);
  EXPECT_EQ(manager.file_tokens(0)[0].end, 128u);
}

TEST(TokenManagerTest, ConflictingWriteRevokesAndSubtracts) {
  TokenManager manager;
  (void)manager.acquire(0, 1, TokenMode::Write, 0, 128);
  const auto revocations = manager.acquire(0, 2, TokenMode::Write, 32, 64);
  ASSERT_EQ(revocations.size(), 1u);
  EXPECT_EQ(revocations[0].client, 1u);
  EXPECT_EQ(revocations[0].begin, 32u);
  EXPECT_EQ(revocations[0].end, 64u);
  // Client 1 keeps the two remainders; the middle now belongs to client 2.
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Write, 0, 32));
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Write, 64, 128));
  EXPECT_FALSE(manager.covered(0, 1, TokenMode::Read, 32, 64));
  EXPECT_TRUE(manager.covered(0, 2, TokenMode::Write, 32, 64));
  EXPECT_EQ(manager.conflicts(), 1u);
  EXPECT_EQ(manager.revocations(), 1u);
  expect_disjoint_per_client(manager, 0);
}

TEST(TokenManagerTest, ReadersShareWritersDoNot) {
  TokenManager manager;
  (void)manager.acquire(0, 1, TokenMode::Read, 0, 100);
  EXPECT_TRUE(manager.acquire(0, 2, TokenMode::Read, 50, 150).empty());
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Read, 0, 100));
  EXPECT_TRUE(manager.covered(0, 2, TokenMode::Read, 50, 150));
  // A writer revokes both readers' overlap, merged per victim.
  const auto revocations = manager.acquire(0, 3, TokenMode::Write, 60, 90);
  ASSERT_EQ(revocations.size(), 2u);
  EXPECT_EQ(revocations[0].client, 1u);
  EXPECT_EQ(revocations[1].client, 2u);
  EXPECT_FALSE(manager.covered(0, 1, TokenMode::Read, 60, 90));
  EXPECT_FALSE(manager.covered(0, 2, TokenMode::Read, 60, 90));
}

TEST(TokenManagerTest, ReleaseClientDropsAllLeases) {
  TokenManager manager;
  (void)manager.acquire(0, 1, TokenMode::Write, 0, 64);
  (void)manager.acquire(1, 1, TokenMode::Read, 0, 32);
  (void)manager.acquire(0, 2, TokenMode::Read, 100, 200);
  manager.release_client(1);
  EXPECT_FALSE(manager.covered(0, 1, TokenMode::Read, 0, 64));
  EXPECT_FALSE(manager.covered(1, 1, TokenMode::Read, 0, 32));
  EXPECT_TRUE(manager.covered(0, 2, TokenMode::Read, 100, 200));
}

TEST(TokenManagerTest, RevocationsMergedPerVictimAndOrdered) {
  TokenManager manager;
  // Client 1 holds two adjacent leases (they coalesce), client 2 one more.
  (void)manager.acquire(0, 2, TokenMode::Write, 96, 128);
  (void)manager.acquire(0, 1, TokenMode::Write, 0, 32);
  (void)manager.acquire(0, 1, TokenMode::Write, 32, 64);
  const auto revocations = manager.acquire(0, 3, TokenMode::Write, 0, 128);
  ASSERT_EQ(revocations.size(), 2u);
  EXPECT_EQ(revocations[0].client, 1u);
  EXPECT_EQ(revocations[0].begin, 0u);
  EXPECT_EQ(revocations[0].end, 64u);
  EXPECT_EQ(revocations[1].client, 2u);
  EXPECT_EQ(revocations[1].begin, 96u);
  EXPECT_EQ(revocations[1].end, 128u);
}

TEST(TokenManagerTest, FilesAreIndependent) {
  TokenManager manager;
  (void)manager.acquire(0, 1, TokenMode::Write, 0, 64);
  EXPECT_TRUE(manager.acquire(1, 2, TokenMode::Write, 0, 64).empty());
  EXPECT_TRUE(manager.covered(0, 1, TokenMode::Write, 0, 64));
  EXPECT_TRUE(manager.covered(1, 2, TokenMode::Write, 0, 64));
}

/// The property test: random acquire/covered/release traffic from several
/// clients over a small byte domain, every step checked against the
/// per-byte reference.  The counters are derived from it too: each
/// client's leases are its maximal same-mode runs, so a grant conflicts
/// once per foreign run it overlaps in a conflicting mode, and owes one
/// revocation per maximal run of a victim's revoked bytes.
TEST(TokenManagerPropertyTest, MatchesPerByteReference) {
  std::mt19937_64 rng(20060627);
  std::uniform_int_distribution<std::uint64_t> offset_dist(0, kDomain - 1);
  std::uniform_int_distribution<std::uint32_t> client_dist(1, 4);
  std::uniform_int_distribution<int> op_dist(0, 9);

  TokenManager manager;
  ByteReference reference;
  const FileHandle file = 0;
  std::uint64_t grants = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t revocations_owed = 0;

  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t client = client_dist(rng);
    std::uint64_t begin = offset_dist(rng);
    std::uint64_t end = offset_dist(rng) + 1;
    if (begin > end) std::swap(begin, end);
    if (begin == end) end = begin + 1;
    const TokenMode mode =
        (op_dist(rng) < 5) ? TokenMode::Write : TokenMode::Read;
    const int op = op_dist(rng);

    if (op == 9) {
      manager.release_client(client);
      reference.release_client(client);
    } else if (op >= 6) {
      EXPECT_EQ(manager.covered(file, client, mode, begin, end),
                reference.covered(client, mode, begin, end))
          << "step " << step << " covered(" << client << ", [" << begin << ", "
          << end << "))";
    } else {
      for (std::uint32_t other = 1; other <= 4; ++other) {
        if (other == client) continue;
        for (const FileToken& run : reference.runs(other))
          if (run.overlaps(begin, end) &&
              (run.mode == TokenMode::Write || mode == TokenMode::Write))
            ++conflicts;
      }
      const auto revocations =
          manager.acquire(file, client, mode, begin, end);
      const auto expected = reference.acquire(client, mode, begin, end);
      EXPECT_EQ(revocation_bytes(revocations), expected)
          << "step " << step << " acquire(" << client << ", [" << begin
          << ", " << end << "))";
      EXPECT_EQ(revocations.size(), revocation_runs(expected))
          << "step " << step;
      EXPECT_TRUE(manager.covered(file, client, mode, begin, end));
      ++grants;
      revocations_owed += revocation_runs(expected);
    }
    ASSERT_EQ(manager.grants(), grants) << "step " << step;
    ASSERT_EQ(manager.conflicts(), conflicts) << "step " << step;
    ASSERT_EQ(manager.revocations(), revocations_owed) << "step " << step;
    for (std::uint32_t holder = 1; holder <= 4; ++holder) {
      const std::vector<FileToken> held =
          client_tokens(manager, file, holder);
      const std::vector<FileToken> runs = reference.runs(holder);
      ASSERT_EQ(held.size(), runs.size())
          << "step " << step << " client " << holder;
      for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i].begin, runs[i].begin) << "step " << step;
        EXPECT_EQ(held[i].end, runs[i].end) << "step " << step;
        EXPECT_EQ(held[i].mode, runs[i].mode) << "step " << step;
      }
    }
  }

  expect_disjoint_per_client(manager, file);

  // Full-table audit: every byte's holders match the reference exactly.
  for (std::uint32_t client = 1; client <= 4; ++client) {
    for (std::uint64_t byte = 0; byte < kDomain; ++byte) {
      for (const TokenMode mode : {TokenMode::Read, TokenMode::Write}) {
        EXPECT_EQ(manager.covered(file, client, mode, byte, byte + 1),
                  reference.covered(client, mode, byte, byte + 1))
            << "client " << client << " byte " << byte;
      }
    }
  }
}

}  // namespace
