#include "crashsim/workload.h"

#include <vector>

#include "common/rng.h"

namespace nvmecr::crashsim {

namespace {

using microfs::MicroFs;
using microfs::OpenFlags;

struct ModelFile {
  std::string path;
  bool tagged = false;  // tagged (pattern) content vs real bytes
  int fd = -1;          // open descriptor, -1 when closed
};

struct Model {
  std::vector<std::string> dirs;   // candidate parents ("" = root)
  std::vector<ModelFile> files;
  uint32_t next_id = 0;

  size_t open_count() const {
    size_t n = 0;
    for (const auto& f : files) n += f.fd >= 0 ? 1 : 0;
    return n;
  }
};

std::string join(const std::string& dir, const std::string& name) {
  return dir.empty() ? "/" + name : dir + "/" + name;
}

/// Entry name `kind` + id ("f12", "d3"). Built by append: GCC 12 at -O3
/// misreports a one-character literal + std::string as -Wrestrict.
std::string entry_name(char kind, uint64_t id) {
  std::string name(1, kind);
  name += std::to_string(id);
  return name;
}

}  // namespace

sim::Task<StatusOr<uint32_t>> run_workload(MicroFs& fs,
                                           const WorkloadSpec& spec) {
  using Result = StatusOr<uint32_t>;
  Rng rng(spec.seed);
  Model model;
  model.dirs.push_back(spec.prefix);  // root (or the prefix directory)

  if (!spec.prefix.empty()) {
    NVMECR_CO_RETURN_IF_ERROR(co_await fs.mkdir(spec.prefix));
  }

  // The op table is rebuilt each iteration because eligibility depends
  // on model state (e.g. no unlink while nothing exists).
  enum class Op {
    kCreate,
    kWrite,
    kFsync,
    kClose,
    kUnlink,
    kRename,
    kMkdir,
    kCheckpoint
  };

  uint32_t issued = 0;
  for (uint32_t i = 0; i < spec.ops; ++i) {
    std::vector<std::pair<Op, uint32_t>> table;
    if (model.files.size() < spec.max_files && spec.w_create > 0) {
      table.emplace_back(Op::kCreate, spec.w_create);
    }
    if (model.open_count() > 0) {
      if (spec.w_write > 0) table.emplace_back(Op::kWrite, spec.w_write);
      if (spec.w_fsync > 0) table.emplace_back(Op::kFsync, spec.w_fsync);
      if (spec.w_close > 0) table.emplace_back(Op::kClose, spec.w_close);
    }
    if (!model.files.empty()) {
      if (spec.w_unlink > 0) table.emplace_back(Op::kUnlink, spec.w_unlink);
      if (spec.w_rename > 0) table.emplace_back(Op::kRename, spec.w_rename);
    }
    if (model.dirs.size() < spec.max_dirs + 1 && spec.w_mkdir > 0) {
      table.emplace_back(Op::kMkdir, spec.w_mkdir);
    }
    if (spec.w_checkpoint > 0) {
      table.emplace_back(Op::kCheckpoint, spec.w_checkpoint);
    }
    if (table.empty()) break;

    uint32_t total = 0;
    for (const auto& [op, w] : table) total += w;
    uint64_t pick = rng.uniform(total);
    Op op = table.front().first;
    for (const auto& [o, w] : table) {
      if (pick < w) {
        op = o;
        break;
      }
      pick -= w;
    }

    switch (op) {
      case Op::kCreate: {
        const std::string& dir =
            model.dirs[rng.uniform(model.dirs.size())];
        ModelFile f;
        f.path = join(dir, entry_name('f', model.next_id++));
        f.tagged = rng.uniform(2) == 0;
        auto fd = co_await fs.creat(f.path);
        NVMECR_CO_RETURN_IF_ERROR(fd.status());
        f.fd = *fd;
        model.files.push_back(std::move(f));
        break;
      }
      case Op::kWrite: {
        // Pick among open files only.
        std::vector<size_t> open;
        for (size_t k = 0; k < model.files.size(); ++k) {
          if (model.files[k].fd >= 0) open.push_back(k);
        }
        ModelFile& f = model.files[open[rng.uniform(open.size())]];
        const uint64_t len = rng.uniform(1, spec.max_write);
        if (f.tagged) {
          NVMECR_CO_RETURN_IF_ERROR(co_await fs.write_tagged(f.fd, len));
        } else {
          std::vector<std::byte> buf(len);
          for (uint64_t b = 0; b < len; ++b) {
            buf[b] = static_cast<std::byte>((spec.seed + i + b) & 0xff);
          }
          auto n = co_await fs.write(f.fd, buf);
          NVMECR_CO_RETURN_IF_ERROR(n.status());
        }
        break;
      }
      case Op::kFsync: {
        std::vector<size_t> open;
        for (size_t k = 0; k < model.files.size(); ++k) {
          if (model.files[k].fd >= 0) open.push_back(k);
        }
        ModelFile& f = model.files[open[rng.uniform(open.size())]];
        NVMECR_CO_RETURN_IF_ERROR(co_await fs.fsync(f.fd));
        break;
      }
      case Op::kClose: {
        std::vector<size_t> open;
        for (size_t k = 0; k < model.files.size(); ++k) {
          if (model.files[k].fd >= 0) open.push_back(k);
        }
        ModelFile& f = model.files[open[rng.uniform(open.size())]];
        NVMECR_CO_RETURN_IF_ERROR(co_await fs.close(f.fd));
        f.fd = -1;
        break;
      }
      case Op::kUnlink: {
        const size_t k = rng.uniform(model.files.size());
        ModelFile& f = model.files[k];
        if (f.fd >= 0) {
          NVMECR_CO_RETURN_IF_ERROR(co_await fs.close(f.fd));
        }
        NVMECR_CO_RETURN_IF_ERROR(co_await fs.unlink(f.path));
        model.files.erase(model.files.begin() + static_cast<long>(k));
        break;
      }
      case Op::kRename: {
        ModelFile& f = model.files[rng.uniform(model.files.size())];
        const std::string& dir =
            model.dirs[rng.uniform(model.dirs.size())];
        const std::string to =
            join(dir, entry_name('f', model.next_id++));
        NVMECR_CO_RETURN_IF_ERROR(co_await fs.rename(f.path, to));
        f.path = to;
        break;
      }
      case Op::kMkdir: {
        const std::string& parent =
            model.dirs[rng.uniform(model.dirs.size())];
        const std::string dir =
            join(parent, entry_name('d', model.next_id++));
        NVMECR_CO_RETURN_IF_ERROR(co_await fs.mkdir(dir));
        model.dirs.push_back(dir);
        break;
      }
      case Op::kCheckpoint: {
        NVMECR_CO_RETURN_IF_ERROR(co_await fs.checkpoint_state());
        break;
      }
    }
    ++issued;
  }

  for (ModelFile& f : model.files) {
    if (f.fd >= 0) {
      NVMECR_CO_RETURN_IF_ERROR(co_await fs.close(f.fd));
      f.fd = -1;
    }
  }
  co_return Result(issued);
}

}  // namespace nvmecr::crashsim
