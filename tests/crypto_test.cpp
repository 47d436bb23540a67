#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/hash.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/prng.h"

namespace fi::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 test vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(util::to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(util::to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      util::to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  std::vector<std::uint8_t> input(1'000'000, 'a');
  EXPECT_EQ(util::to_hex(sha256(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  util::Xoshiro256 rng(1);
  std::vector<std::uint8_t> data(10'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  // Feed in awkward chunk sizes crossing block boundaries.
  Sha256 hasher;
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 500, 9180};
  for (std::size_t c : chunks) {
    hasher.update({data.data() + off, c});
    off += c;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(hasher.finalize(), sha256(data));
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 hasher;
  hasher.update(bytes_of("garbage"));
  hasher.reset();
  hasher.update(bytes_of("abc"));
  EXPECT_EQ(util::to_hex(hasher.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------------------
// Compression kernels: each one driven directly, the portable one as the
// reference the SHA-NI one must match byte for byte
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

Digest digest_with(Sha256Kernel kernel, std::span<const std::uint8_t> data) {
  Sha256 hasher(kernel);
  hasher.update(data);
  return hasher.finalize();
}

void expect_fips_vectors(Sha256Kernel kernel) {
  struct Vector {
    std::string input;
    const char* hex;
  };
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(util::to_hex(digest_with(kernel, bytes_of(v.input))), v.hex)
        << "input of " << v.input.size() << " bytes";
  }
}

/// `kernel` against the portable kernel: every length 0..1024 one-shot and
/// at random update() split points, inputs at unaligned offsets 1..15, and
/// multi-block runs from random chaining states handed to the kernels
/// directly.
void expect_matches_portable(Sha256Kernel kernel) {
  const Sha256Kernel reference = &sha256_blocks_portable;
  const std::vector<std::uint8_t> data = random_bytes(1024 + 16, 11);
  util::Xoshiro256 rng(12);

  for (std::size_t len = 0; len <= 1024; ++len) {
    const std::span<const std::uint8_t> msg(data.data(), len);
    const Digest want = digest_with(reference, msg);
    ASSERT_EQ(digest_with(kernel, msg), want) << "length " << len;
    Sha256 split(kernel);
    for (std::size_t off = 0; off < len;) {
      const std::size_t take = 1 + rng.uniform_below(len - off);
      split.update(msg.subspan(off, take));
      off += take;
    }
    ASSERT_EQ(split.finalize(), want) << "split, length " << len;
  }

  for (std::size_t shift = 1; shift <= 15; ++shift) {
    for (const std::size_t len : {0, 1, 55, 56, 63, 64, 65, 128, 1000, 1024}) {
      const std::span<const std::uint8_t> unaligned(data.data() + shift, len);
      const std::vector<std::uint8_t> copy(unaligned.begin(), unaligned.end());
      ASSERT_EQ(digest_with(kernel, unaligned), digest_with(reference, copy))
          << "offset " << shift << ", length " << len;
    }
  }

  for (std::size_t blocks = 1; blocks <= 16; ++blocks) {
    for (std::size_t shift = 0; shift <= 15; ++shift) {
      std::array<std::uint32_t, 8> got;
      for (auto& word : got) word = static_cast<std::uint32_t>(rng());
      std::array<std::uint32_t, 8> want = got;
      kernel(got.data(), data.data() + shift, blocks);
      reference(want.data(), data.data() + shift, blocks);
      ASSERT_EQ(got, want) << blocks << " blocks at offset " << shift;
    }
  }
}

TEST(Sha256Kernel, PortableKernel) {
  expect_fips_vectors(&sha256_blocks_portable);
  expect_matches_portable(&sha256_blocks_portable);
}

TEST(Sha256Kernel, ShaNiKernelMatchesPortable) {
  const Sha256Kernel shani = sha256_blocks_shani();
  if (shani == nullptr) {
    GTEST_SKIP() << "this build or CPU has no SHA-NI; only the portable "
                    "kernel is in use";
  }
  expect_fips_vectors(shani);
  expect_matches_portable(shani);
}

// ---------------------------------------------------------------------------
// Hash256 and domain separation
// ---------------------------------------------------------------------------

TEST(Hash256Type, DomainSeparationChangesDigest) {
  const auto data = bytes_of("payload");
  EXPECT_NE(hash_bytes("domain/a", data), hash_bytes("domain/b", data));
}

TEST(Hash256Type, PairOrderMatters) {
  const Hash256 a = hash_bytes("t", bytes_of("a"));
  const Hash256 b = hash_bytes("t", bytes_of("b"));
  EXPECT_NE(hash_pair("n", a, b), hash_pair("n", b, a));
}

TEST(Hash256Type, U64HashingIsPositional) {
  EXPECT_NE(hash_u64s("t", {1, 2}), hash_u64s("t", {2, 1}));
  EXPECT_NE(hash_u64s("t", {1}), hash_u64s("t", {1, 0}));
}

TEST(Hash256Type, HexAndPrefix) {
  Hash256 h;
  h.bytes[0] = 0xab;
  h.bytes[7] = 0x01;
  EXPECT_EQ(h.hex().size(), 64u);
  EXPECT_EQ(h.short_hex(), "ab000000");
  EXPECT_EQ(h.prefix_u64(), 0xab00000000000001ull);
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(Hash256{}.is_zero());
}

// ---------------------------------------------------------------------------
// Merkle trees
// ---------------------------------------------------------------------------

TEST(Merkle, SingleLeafRootIsLeafHash) {
  const auto data = bytes_of("tiny");
  const MerkleTree tree = MerkleTree::over_data(data);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), merkle_leaf_hash(data));
}

TEST(Merkle, RootChangesWithContent) {
  EXPECT_NE(merkle_root_of_data(bytes_of("hello world")),
            merkle_root_of_data(bytes_of("hello worle")));
}

TEST(Merkle, ProofVerifiesForEveryLeaf) {
  util::Xoshiro256 rng(2);
  for (std::size_t size : {1u, 64u, 65u, 128u, 1000u, 4096u, 5000u}) {
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const MerkleTree tree = MerkleTree::over_data(data);
    for (std::uint64_t i = 0; i < tree.leaf_count(); ++i) {
      const MerkleProof proof = tree.prove(i);
      ASSERT_TRUE(merkle_verify(tree.root(), tree.leaf(i), proof))
          << "size=" << size << " leaf=" << i;
    }
  }
}

TEST(Merkle, TamperedLeafFailsVerification) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  const MerkleProof proof = tree.prove(3);
  Hash256 wrong_leaf = tree.leaf(3);
  wrong_leaf.bytes[0] ^= 1;
  EXPECT_FALSE(merkle_verify(tree.root(), wrong_leaf, proof));
}

TEST(Merkle, TamperedPathFailsVerification) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  MerkleProof proof = tree.prove(3);
  proof.path[1].bytes[5] ^= 1;
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
}

TEST(Merkle, WrongIndexFailsVerification) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  MerkleProof proof = tree.prove(3);
  proof.leaf_index = 4;
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
}

TEST(Merkle, WrongDepthProofRejected) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const MerkleTree tree = MerkleTree::over_data(data);
  MerkleProof proof = tree.prove(3);
  proof.path.push_back(Hash256{});
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
  proof.path.resize(proof.path.size() - 2);
  EXPECT_FALSE(merkle_verify(tree.root(), tree.leaf(3), proof));
}

TEST(Merkle, EmptyDataHasWellDefinedRoot) {
  const MerkleTree tree = MerkleTree::over_data({});
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.root(), merkle_leaf_hash({}));
}

TEST(Merkle, OddLeafCountDuplicatesLast) {
  // 3 leaves: root = H(H(l0,l1), H(l2,l2)).
  std::vector<Hash256> leaves;
  for (int i = 0; i < 3; ++i) {
    leaves.push_back(hash_u64s("leaf", {static_cast<std::uint64_t>(i)}));
  }
  const MerkleTree tree(leaves);
  const Hash256 left = hash_pair("fi/merkle/node", leaves[0], leaves[1]);
  const Hash256 right = hash_pair("fi/merkle/node", leaves[2], leaves[2]);
  EXPECT_EQ(tree.root(), hash_pair("fi/merkle/node", left, right));
}

TEST(Merkle, MultiBlockRootIsPinned) {
  // Known answer over 37 full blocks and a 5-byte tail (38 leaves, so
  // several odd levels): any change to block splitting, leaf or node
  // hashing, or odd-level duplication moves this root.
  util::Xoshiro256 rng(2026);
  std::vector<std::uint8_t> data(37 * kMerkleBlockSize + 5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(merkle_root_of_data(data).hex(),
            "8de3a87f45d1ed075cce5061a50d039c7edf0e21e05a32e17aef91a17ac2419a");
}

TEST(Merkle, LeafVsInteriorDomainSeparation) {
  // A leaf hash can never be confused with an interior node hash because
  // they use distinct domains.
  const auto data = bytes_of("x");
  EXPECT_NE(merkle_leaf_hash(data), hash_bytes("fi/merkle/node", data));
}

}  // namespace
}  // namespace fi::crypto
