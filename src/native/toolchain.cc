#include "native/toolchain.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#include <unistd.h>
#define REVNIC_NATIVE_HAVE_DLOPEN 1
#else
#define REVNIC_NATIVE_HAVE_DLOPEN 0
#endif

namespace revnic::native {

namespace {

namespace fs = std::filesystem;

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool WriteFile(const fs::path& path, const std::string& text, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot write " + path.string();
    }
    return false;
  }
  out << text;
  out.close();
  return out.good();
}

// The flags match the repo's backend compile-smoke test plus what dlopen
// needs; sanitizer builds forward the same -fsanitize flag so the loaded
// code is instrumented like its host (the ASan runtime is already in the
// process, so the .so links against it cleanly).
std::string CompileCommand(const std::string& cc, const std::string& src,
                           const std::string& out, const std::string& log) {
  std::string cmd = cc + " -std=c11 -O2 -fPIC -shared -Wall -Werror"
                         " -Wno-unused-but-set-variable -Wno-unused-variable";
#ifdef REVNIC_NATIVE_SANITIZE
  cmd += std::string(" -fsanitize=") + REVNIC_NATIVE_SANITIZE;
#endif
  cmd += " -o '" + out + "' '" + src + "' 2> '" + log + "'";
  return cmd;
}

}  // namespace

std::string HostCompiler() {
  const char* env = std::getenv("REVNIC_NATIVE_CC");
  return env != nullptr && env[0] != '\0' ? env : "cc";
}

std::string DefaultWorkDir() {
  // Never destroyed: the exit hook reads it after static destructors ran.
  static const std::string& dir = *[] {
    std::error_code ec;
    fs::path base = fs::temp_directory_path(ec);
    if (ec) {
      base = ".";
    }
#if defined(__unix__) || defined(__APPLE__)
    fs::path d = base / ("revnic_native_" + std::to_string(::getpid()));
#else
    fs::path d = base / "revnic_native";
#endif
    fs::create_directories(d, ec);
    std::atexit([] {
      std::error_code ignored;
      fs::remove_all(DefaultWorkDir(), ignored);
    });
    return new std::string(d.string());
  }();
  return dir;
}

bool CompileSharedObject(const std::string& source, const std::string& so_path,
                         std::string* error) {
#if !REVNIC_NATIVE_HAVE_DLOPEN
  if (error != nullptr) {
    *error = "dlopen unavailable on this platform";
  }
  (void)source;
  (void)so_path;
  return false;
#else
  fs::path so(so_path);
  fs::path src = so;
  src.replace_extension(".c");
  fs::path log = so;
  log.replace_extension(".cc.log");
  std::error_code ec;
  fs::create_directories(so.parent_path(), ec);
  if (!WriteFile(src, source, error)) {
    return false;
  }
  std::string cmd = CompileCommand(HostCompiler(), src.string(), so.string(), log.string());
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    if (error != nullptr) {
      std::string diag = ReadFileOrEmpty(log);
      *error = "host cc failed (exit " + std::to_string(rc) + "): " +
               (diag.empty() ? cmd : diag.substr(0, 2000));
    }
    return false;
  }
  return true;
#endif
}

bool ToolchainAvailable(std::string* why) {
  static std::once_flag once;
  static bool available = false;
  static std::string reason;
  std::call_once(once, [] {
#if !REVNIC_NATIVE_HAVE_DLOPEN
    reason = "dlopen unavailable on this platform";
#else
    fs::path so = fs::path(DefaultWorkDir()) / "probe.so";
    std::string error;
    if (!CompileSharedObject("int revnic_probe(void) { return 42; }\n", so.string(),
                             &error)) {
      reason = "no working host C compiler: " + error;
      return;
    }
    void* handle = ::dlopen(so.string().c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
      const char* err = ::dlerror();
      reason = std::string("dlopen probe failed: ") + (err != nullptr ? err : "unknown");
      return;
    }
    bool sym_ok = ::dlsym(handle, "revnic_probe") != nullptr;
    ::dlclose(handle);
    if (!sym_ok) {
      reason = "dlsym probe failed";
      return;
    }
    available = true;
#endif
  });
  if (why != nullptr) {
    *why = reason;
  }
  return available;
}

}  // namespace revnic::native
