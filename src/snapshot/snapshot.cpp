#include "snapshot/snapshot.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "crypto/sha256.h"
#include "util/binary_io.h"
#include "util/config.h"
#include "util/hex.h"

namespace fi::snapshot {

namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

crypto::Digest payload_digest(std::span<const std::uint8_t> spec,
                              std::span<const std::uint8_t> body) {
  crypto::Sha256 hasher;
  hasher.update(spec);
  hasher.update(body);
  return hasher.finalize();
}

/// Validates an image's magic, version, framing lengths, digest and spec.
/// On success `body_len` is the length of the body, which is always the
/// image's tail.
util::Result<scenario::ScenarioSpec> validate(std::span<const std::uint8_t> raw,
                                              const std::string& origin,
                                              std::size_t& body_len) {
  util::BinaryReader reader(raw);
  std::uint8_t magic[sizeof(kMagic)];
  reader.raw(magic);
  if (!reader.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + " is not a FileInsurer snapshot (bad magic)");
  }
  const std::uint32_t version = reader.u32();
  if (reader.ok() && version != kFormatVersion) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": unsupported snapshot format version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kFormatVersion) + ")");
  }
  const std::string spec_text = reader.str();
  const std::uint64_t declared_body_len = reader.u64();
  crypto::Digest stored_digest;
  reader.raw(stored_digest);
  if (!reader.ok() || reader.remaining() != declared_body_len) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": truncated or malformed snapshot (body length "
                              "does not match the header)");
  }
  body_len = static_cast<std::size_t>(declared_body_len);
  if (payload_digest(as_bytes(spec_text), raw.last(body_len)) !=
      stored_digest) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": snapshot digest mismatch (corrupted file)");
  }

  auto config = util::Config::parse(spec_text);
  if (!config.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": embedded spec does not parse: " +
                         config.status().to_string());
  }
  auto spec = scenario::ScenarioSpec::from_config(config.value());
  if (!spec.is_ok()) {
    return util::err(util::ErrorCode::invalid_argument,
                     origin + ": embedded spec invalid: " +
                         spec.status().to_string());
  }
  return std::move(spec).value();
}

}  // namespace

std::vector<std::uint8_t> encode_state(const scenario::ScenarioRunner& runner) {
  util::BinaryWriter writer;
  runner.save_state(writer);
  return std::move(writer).take();
}

std::string state_hash(const scenario::ScenarioRunner& runner) {
  util::BinaryWriter writer(/*keep_bytes=*/false);
  runner.save_state(writer);
  const crypto::Digest digest = writer.digest();
  return util::to_hex(digest);
}

util::Status save_to_file(const scenario::ScenarioRunner& runner,
                          const std::string& path) {
  const std::string spec_text = runner.spec().to_config_string();
  const std::vector<std::uint8_t> body = encode_state(runner);
  const crypto::Digest digest = payload_digest(as_bytes(spec_text), body);

  util::BinaryWriter header;
  header.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  header.u32(kFormatVersion);
  header.str(spec_text);
  header.u64(body.size());
  header.raw(digest);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::err(util::ErrorCode::unavailable,
                     "cannot open snapshot file for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(header.data().data()),
            static_cast<std::streamsize>(header.data().size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  out.close();
  if (!out.good()) {
    return util::err(util::ErrorCode::unavailable,
                     "failed to write snapshot file: " + path);
  }
  return util::Status::ok();
}

util::Result<Snapshot> parse(std::span<const std::uint8_t> raw,
                             const std::string& origin) {
  std::size_t body_len = 0;
  auto spec = validate(raw, origin, body_len);
  if (!spec.is_ok()) return spec.status();
  const std::span<const std::uint8_t> body = raw.last(body_len);
  return Snapshot{std::move(spec).value(),
                  std::vector<std::uint8_t>(body.begin(), body.end())};
}

util::Result<Snapshot> read_file(const std::string& path) {
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::ifstream in(path, std::ios::binary);
  if (size_error || !in) {
    return util::err(util::ErrorCode::not_found,
                     "cannot open snapshot file: " + path);
  }
  std::vector<std::uint8_t> raw(size);
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    return util::err(util::ErrorCode::unavailable,
                     "cannot read snapshot file: " + path);
  }
  in.close();
  std::size_t body_len = 0;
  auto spec = validate(raw, path, body_len);
  if (!spec.is_ok()) return spec.status();
  // The body is the image's tail: drop the header in place rather than
  // copying the body out, so a resume holds the checkpoint once.
  raw.erase(raw.begin(), raw.end() - static_cast<std::ptrdiff_t>(body_len));
  return Snapshot{std::move(spec).value(), std::move(raw)};
}

util::Result<std::unique_ptr<scenario::ScenarioRunner>> resume_from_file(
    const std::string& path) {
  auto snapshot = read_file(path);
  if (!snapshot.is_ok()) return snapshot.status();
  Snapshot snap = std::move(snapshot).value();
  util::BinaryReader reader(snap.body);
  auto runner = scenario::ScenarioRunner::resume(std::move(snap.spec), reader);
  if (!runner.is_ok()) {
    return util::err(runner.status().code(),
                     path + ": " + runner.status().message());
  }
  return std::move(runner).value();
}

}  // namespace fi::snapshot
