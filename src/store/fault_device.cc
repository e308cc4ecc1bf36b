#include "store/fault_device.h"

#include <cerrno>
#include <cstring>
#include <map>

#include "common/parse.h"
#include "common/random.h"
#include "runtime/rng_stream.h"

namespace bdisk::store {

namespace {

/// Splits `text` on `sep` (no escaping; empty pieces preserved) — the same
/// shape as the channel-spec tokenizer, so the two grammars stay twins.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t pos = text.find(sep, begin);
    if (pos == std::string::npos) {
      out.push_back(text.substr(begin));
      return out;
    }
    out.push_back(text.substr(begin, pos - begin));
    begin = pos + 1;
  }
}

struct NamedErrno {
  const char* name;
  int value;
};

constexpr NamedErrno kErrnoNames[] = {
    {"EIO", EIO},     {"ENOSPC", ENOSPC}, {"EACCES", EACCES},
    {"EBADF", EBADF}, {"ENXIO", ENXIO},
};

const char* ErrnoName(int err) {
  for (const NamedErrno& e : kErrnoNames) {
    if (e.value == err) return e.name;
  }
  return "?";
}

/// Key-value arguments of one model term (channel_spec.cc idiom): typed
/// extraction, duplicate and unknown-key detection, errors naming tokens.
class ModelArgs {
 public:
  static Result<ModelArgs> Parse(const std::string& model,
                                 const std::vector<std::string>& kvs) {
    ModelArgs args(model);
    for (const std::string& kv : kvs) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
        return Status::InvalidArgument(
            "device fault spec: expected key=value in '" + model +
            "', got '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      if (!args.values_.emplace(key, kv.substr(eq + 1)).second) {
        return Status::InvalidArgument("device fault spec: duplicate key '" +
                                       key + "' in '" + model + "'");
      }
    }
    return args;
  }

  Result<std::uint64_t> Uint(const std::string& key, std::uint64_t fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.push_back(key);
    std::uint64_t value = 0;
    if (!ParseUint64Token(it->second.c_str(), &value)) {
      return Status::InvalidArgument("device fault spec: '" + key + "=" +
                                     it->second + "' in '" + model_ +
                                     "' is not a 64-bit non-negative integer");
    }
    return value;
  }

  Result<std::string> String(const std::string& key, std::string fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.push_back(key);
    return it->second;
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  /// Fails if any supplied key was never consumed (typo detection).
  Status CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      bool used = false;
      for (const std::string& c : consumed_) {
        if (c == key) used = true;
      }
      if (!used) {
        return Status::InvalidArgument("device fault spec: unknown key '" +
                                       key + "' for model '" + model_ + "'");
      }
    }
    return Status::OK();
  }

 private:
  explicit ModelArgs(std::string model) : model_(std::move(model)) {}

  std::string model_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> consumed_;
};

Status ParseOneModel(const std::string& term, DeviceFaultConfig* config) {
  const std::size_t colon = term.find(':');
  const std::string name = term.substr(0, colon);
  std::vector<std::string> kvs;
  if (colon != std::string::npos) {
    kvs = Split(term.substr(colon + 1), ',');
  }
  BDISK_ASSIGN_OR_RETURN(ModelArgs args, ModelArgs::Parse(term, kvs));

  if (name == "none") {
    // No faults; only key checking below.
  } else if (name == "errno") {
    ErrnoFault fault;
    fault.err = EIO;
    Result<std::string> op_arg = args.String("op", "write");
    BDISK_RETURN_NOT_OK(op_arg.status());
    const std::string& op = *op_arg;
    if (op == "read") {
      fault.op = IoOp::kRead;
    } else if (op == "write") {
      fault.op = IoOp::kWrite;
    } else if (op == "sync") {
      fault.op = IoOp::kSync;
    } else {
      return Status::InvalidArgument("device fault spec: 'op=" + op +
                                     "' in '" + term +
                                     "' is not read, write, or sync");
    }
    BDISK_ASSIGN_OR_RETURN(fault.at, args.Uint("at", 0));
    BDISK_ASSIGN_OR_RETURN(fault.count, args.Uint("count", 1));
    if (fault.count == 0) {
      return Status::InvalidArgument(
          "device fault spec: 'count=0' in '" + term + "' injects nothing");
    }
    Result<std::string> err_arg = args.String("err", "EIO");
    BDISK_RETURN_NOT_OK(err_arg.status());
    const std::string& err = *err_arg;
    bool known = false;
    for (const NamedErrno& e : kErrnoNames) {
      if (err == e.name) {
        fault.err = e.value;
        known = true;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          "device fault spec: 'err=" + err + "' in '" + term +
          "' is not a known errno name (expected EIO, ENOSPC, EACCES, "
          "EBADF, or ENXIO)");
    }
    config->errnos.push_back(fault);
  } else if (name == "short") {
    ShortWriteFault fault;
    BDISK_ASSIGN_OR_RETURN(fault.at, args.Uint("at", 0));
    BDISK_ASSIGN_OR_RETURN(fault.bytes,
                           args.Uint("bytes", ShortWriteFault::kHalfBlock));
    config->shorts.push_back(fault);
  } else if (name == "torn") {
    TornWriteFault fault;
    BDISK_ASSIGN_OR_RETURN(fault.at, args.Uint("at", 0));
    BDISK_ASSIGN_OR_RETURN(fault.bytes,
                           args.Uint("bytes", ShortWriteFault::kHalfBlock));
    BDISK_ASSIGN_OR_RETURN(fault.seed, args.Uint("seed", 0));
    config->torns.push_back(fault);
  } else if (name == "powercut") {
    if (config->powercut.has_value()) {
      return Status::InvalidArgument(
          "device fault spec: more than one powercut model in the "
          "composition ('" + term + "')");
    }
    PowerCutFault fault;
    BDISK_ASSIGN_OR_RETURN(fault.at, args.Uint("at", 0));
    if (args.Has("torn")) {
      BDISK_ASSIGN_OR_RETURN(const std::uint64_t torn, args.Uint("torn", 0));
      fault.torn_bytes = torn;
    }
    config->powercut = fault;
  } else {
    return Status::InvalidArgument(
        "device fault spec: unknown model '" + name +
        "' (expected none, errno, short, torn, or powercut)");
  }
  return args.CheckAllConsumed();
}

}  // namespace

Result<DeviceFaultConfig> ParseDeviceFaultSpec(const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("device fault spec: empty specification");
  }
  DeviceFaultConfig config;
  for (const std::string& term : Split(spec, '+')) {
    BDISK_RETURN_NOT_OK(ParseOneModel(term, &config));
  }
  return config;
}

std::string DeviceFaultConfig::Describe() const {
  std::string out;
  const auto append = [&out](const std::string& term) {
    if (!out.empty()) out += '+';
    out += term;
  };
  for (const ErrnoFault& f : errnos) {
    append("errno:op=" + std::string(IoOpToString(f.op)) +
           ",at=" + std::to_string(f.at) +
           (f.count != 1 ? ",count=" + std::to_string(f.count) : "") +
           ",err=" + ErrnoName(f.err));
  }
  for (const ShortWriteFault& f : shorts) {
    append("short:at=" + std::to_string(f.at) +
           (f.bytes != ShortWriteFault::kHalfBlock
                ? ",bytes=" + std::to_string(f.bytes)
                : ""));
  }
  for (const TornWriteFault& f : torns) {
    append("torn:at=" + std::to_string(f.at) +
           (f.bytes != ShortWriteFault::kHalfBlock
                ? ",bytes=" + std::to_string(f.bytes)
                : "") +
           (f.seed != 0 ? ",seed=" + std::to_string(f.seed) : ""));
  }
  if (powercut.has_value()) {
    append("powercut:at=" + std::to_string(powercut->at) +
           (powercut->torn_bytes.has_value()
                ? ",torn=" + std::to_string(*powercut->torn_bytes)
                : ""));
  }
  if (out.empty()) out = "none";
  return out;
}

const ErrnoFault* FaultingBlockDevice::MatchErrno(
    IoOp op, std::uint64_t ordinal) const {
  for (const ErrnoFault& f : config_.errnos) {
    if (f.op == op && ordinal >= f.at && ordinal - f.at < f.count) return &f;
  }
  return nullptr;
}

IoResult FaultingBlockDevice::WritePartial(std::uint64_t index,
                                           const void* data,
                                           std::uint64_t bytes,
                                           std::uint64_t garbage_seed) {
  const std::size_t bs = inner_->block_size();
  if (bytes == ShortWriteFault::kHalfBlock) bytes = bs / 2;
  if (bytes > bs) bytes = bs;
  std::vector<std::uint8_t> sector(bs);
  // Tail: the sector's old contents (the classic torn write), or seeded
  // garbage when a scribble is requested.
  const IoResult read = inner_->ReadBlock(index, sector.data());
  if (!read.ok()) return read;
  std::memcpy(sector.data(), data, static_cast<std::size_t>(bytes));
  if (garbage_seed != 0) {
    Rng rng(runtime::StreamSeed(garbage_seed, index));
    for (std::size_t i = static_cast<std::size_t>(bytes); i < bs; ++i) {
      sector[i] = static_cast<std::uint8_t>(rng.Uniform(256));
    }
  }
  const IoResult write = inner_->WriteBlock(index, sector.data());
  if (!write.ok()) return write;
  return IoResult::Short(IoOp::kWrite, index, bytes);
}

IoResult FaultingBlockDevice::ReadBlock(std::uint64_t index, void* out) {
  const std::uint64_t ordinal = reads_++;
  if (dead_) return IoResult::PowerCut(IoOp::kRead, index);
  if (const ErrnoFault* f = MatchErrno(IoOp::kRead, ordinal)) {
    return IoResult::Errno(IoOp::kRead, f->err, index);
  }
  return inner_->ReadBlock(index, out);
}

IoResult FaultingBlockDevice::WriteBlock(std::uint64_t index,
                                         const void* data) {
  const std::uint64_t ordinal = writes_++;
  if (dead_) return IoResult::PowerCut(IoOp::kWrite, index);
  if (config_.powercut.has_value() && ordinal >= config_.powercut->at) {
    // The boundary: the in-flight write may tear, then the device dies.
    if (ordinal == config_.powercut->at &&
        config_.powercut->torn_bytes.has_value()) {
      (void)WritePartial(index, data, *config_.powercut->torn_bytes, 0);
    }
    dead_ = true;
    return IoResult::PowerCut(IoOp::kWrite, index);
  }
  if (const ErrnoFault* f = MatchErrno(IoOp::kWrite, ordinal)) {
    return IoResult::Errno(IoOp::kWrite, f->err, index);
  }
  for (const ShortWriteFault& f : config_.shorts) {
    if (f.at == ordinal) return WritePartial(index, data, f.bytes, 0);
  }
  for (const TornWriteFault& f : config_.torns) {
    if (f.at == ordinal) {
      const IoResult r = WritePartial(index, data, f.bytes, f.seed);
      // The lying disk: the tear happened, but the caller is told success.
      return r.error == IoError::kShortWrite ? IoResult::Ok() : r;
    }
  }
  return inner_->WriteBlock(index, data);
}

IoResult FaultingBlockDevice::Sync() {
  const std::uint64_t ordinal = syncs_++;
  if (dead_) return IoResult::PowerCut(IoOp::kSync);
  if (const ErrnoFault* f = MatchErrno(IoOp::kSync, ordinal)) {
    return IoResult::Errno(IoOp::kSync, f->err);
  }
  return inner_->Sync();
}

}  // namespace bdisk::store
