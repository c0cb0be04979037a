#include "util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace birnn {

void FlagSet::AddInt(const std::string& name, int default_value,
                     const std::string& help) {
  Flag f;
  f.type = Type::kInt;
  f.help = help;
  f.int_value = default_value;
  flags_[name] = std::move(f);
}

void FlagSet::AddDouble(const std::string& name, double default_value,
                        const std::string& help) {
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.double_value = default_value;
  flags_[name] = std::move(f);
}

void FlagSet::AddString(const std::string& name,
                        const std::string& default_value,
                        const std::string& help) {
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.string_value = default_value;
  flags_[name] = std::move(f);
}

void FlagSet::AddBool(const std::string& name, bool default_value,
                      const std::string& help) {
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.bool_value = default_value;
  flags_[name] = std::move(f);
}

Status FlagSet::SetFromString(Flag* flag, const std::string& value) {
  switch (flag->type) {
    case Type::kInt: {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(value.c_str(), &end, 10);
      if (end != value.c_str() + value.size() || value.empty()) {
        return Status::InvalidArgument("expected integer, got '" + value +
                                       "'");
      }
      if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("integer out of range: '" + value +
                                       "'");
      }
      flag->int_value = static_cast<int>(v);
      return Status::OK();
    }
    case Type::kDouble: {
      double v = 0.0;
      if (!ParseDouble(value, &v)) {
        return Status::InvalidArgument("expected number, got '" + value + "'");
      }
      flag->double_value = v;
      return Status::OK();
    }
    case Type::kString:
      flag->string_value = value;
      return Status::OK();
    case Type::kBool: {
      const std::string lower = ToLower(value);
      if (lower == "true" || lower == "1" || lower == "yes") {
        flag->bool_value = true;
      } else if (lower == "false" || lower == "0" || lower == "no") {
        flag->bool_value = false;
      } else {
        return Status::InvalidArgument("expected bool, got '" + value + "'");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    Flag* flag = &it->second;
    if (!has_value) {
      if (flag->type == Type::kBool) {
        flag->bool_value = true;  // bare --flag means true
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + name + " needs a value");
      }
      value = argv[++i];
    }
    Status st = SetFromString(flag, value);
    if (!st.ok()) {
      return Status::InvalidArgument("--" + name + ": " + st.message());
    }
  }
  return Status::OK();
}

const FlagSet::Flag* FlagSet::Find(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  BIRNN_CHECK(it != flags_.end()) << "undefined flag --" << name;
  BIRNN_CHECK(it->second.type == type) << "flag --" << name << " type mismatch";
  return &it->second;
}

int FlagSet::GetInt(const std::string& name) const {
  return Find(name, Type::kInt)->int_value;
}

double FlagSet::GetDouble(const std::string& name) const {
  return Find(name, Type::kDouble)->double_value;
}

const std::string& FlagSet::GetString(const std::string& name) const {
  return Find(name, Type::kString)->string_value;
}

bool FlagSet::GetBool(const std::string& name) const {
  return Find(name, Type::kBool)->bool_value;
}

std::string FlagSet::Usage(const std::string& program) const {
  std::ostringstream out;
  out << "Usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (";
    switch (flag.type) {
      case Type::kInt:
        out << "int, default " << flag.int_value;
        break;
      case Type::kDouble:
        out << "double, default " << flag.double_value;
        break;
      case Type::kString:
        out << "string, default \"" << flag.string_value << "\"";
        break;
      case Type::kBool:
        out << "bool, default " << (flag.bool_value ? "true" : "false");
        break;
    }
    out << ") — " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace birnn
