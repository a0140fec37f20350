// Shared by the benchmark's tools: a minimal blocking HTTP/1.1 keep-alive
// client written against the wire contract only (it shares no code with
// the server or its client), plus small helpers.
#ifndef PERFBENCH_TOOLS_COMMON_H_
#define PERFBENCH_TOOLS_COMMON_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Response {
  int status = 0;
  long long version = -1;
  int cache = 0;  // 1 hit, -1 miss, 0 absent
  std::string body;
};

// One blocking keep-alive connection. Any transport or framing error makes
// the call fail; the caller counts it and reconnects.
class Conn {
 public:
  explicit Conn(int port) : port_(port) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Request(const std::string& method, const std::string& target,
               const std::string& body, Response* out) {
    if (fd_ < 0 && !Connect()) return false;
    std::string req = method + " " + target + " HTTP/1.1\r\nHost: pb\r\n";
    if (!body.empty() || method == "POST") {
      req += "Content-Type: text/plain\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n";
    req += body;
    if (!SendAll(req) || !ReadResponse(out)) {
      Close();
      return false;
    }
    return true;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buf_.clear();
    return true;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  static std::string Lower(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  }
  bool ReadResponse(Response* out) {
    size_t end;
    while ((end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (buf_.size() > (1u << 20) || !Fill()) return false;
    }
    const std::string head = buf_.substr(0, end);
    buf_.erase(0, end + 4);
    if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) return false;
    out->status = std::atoi(head.c_str() + 9);
    out->version = -1;
    out->cache = 0;
    long long length = -1;
    size_t pos = head.find("\r\n");
    while (pos != std::string::npos) {
      const size_t next = head.find("\r\n", pos + 2);
      const std::string line = head.substr(
          pos + 2, next == std::string::npos ? std::string::npos
                                             : next - pos - 2);
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::string name = Lower(line.substr(0, colon));
        const std::string value = line.substr(colon + 1);
        if (name == "content-length") length = std::atoll(value.c_str());
        if (name == "x-taxonomy-version") out->version = std::atoll(value.c_str());
        if (name == "x-cache") out->cache = value.find("hit") != std::string::npos ? 1 : -1;
      }
      pos = next;
    }
    if (length < 0) return false;
    while (buf_.size() < static_cast<size_t>(length)) {
      if (!Fill()) return false;
    }
    out->body = buf_.substr(0, static_cast<size_t>(length));
    buf_.erase(0, static_cast<size_t>(length));
    return true;
  }

  const int port_;
  int fd_ = -1;
  std::string buf_;
};

inline std::string PercentEncode(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += hex[c >> 4];
      out += hex[c & 15];
    }
  }
  return out;
}

inline std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  return v[i];
}

}  // namespace pb

#endif  // PERFBENCH_TOOLS_COMMON_H_
