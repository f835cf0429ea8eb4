#include "server/http.h"

#include <cctype>
#include <cmath>

#include "common/strings.h"
#include "obs/event_log.h"

namespace teleios::server {

namespace {

/// %xx-decodes a URL component (+ stays +; the facade never emits forms).
std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size() &&
        std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
        std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      auto hex = [](char c) {
        return c <= '9' ? c - '0' : (std::tolower(c) - 'a' + 10);
      };
      out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

void AppendJsonValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      *out += "null";
      return;
    case ValueType::kBool:
      *out += v.AsBool() ? "true" : "false";
      return;
    case ValueType::kInt64:
      *out += std::to_string(v.AsInt64());
      return;
    case ValueType::kFloat64: {
      double d = v.AsFloat64();
      // JSON has no literal for inf or nan.
      *out += std::isfinite(d) ? StrFormat("%.17g", d) : "null";
      return;
    }
    case ValueType::kString:
      *out += '"';
      *out += obs::JsonEscapeString(v.AsString());
      *out += '"';
      return;
  }
}

}  // namespace

Result<HttpRequest> ParseHttpHead(std::string_view head) {
  HttpRequest request;
  size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) {
    return Status::InvalidArgument("malformed HTTP request line");
  }
  std::string_view request_line = head.substr(0, line_end);
  std::vector<std::string> parts = StrSplit(request_line, ' ');
  if (parts.size() != 3 || !StrStartsWith(parts[2], "HTTP/1.")) {
    return Status::InvalidArgument("malformed HTTP request line");
  }
  request.method = parts[0];
  std::string target = parts[1];
  size_t qmark = target.find('?');
  request.path = UrlDecode(qmark == std::string::npos
                               ? target
                               : target.substr(0, qmark));
  if (qmark != std::string::npos) {
    for (const std::string& pair :
         StrSplit(target.substr(qmark + 1), '&')) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        request.query[UrlDecode(pair)] = "";
      } else {
        request.query[UrlDecode(pair.substr(0, eq))] =
            UrlDecode(pair.substr(eq + 1));
      }
    }
  }
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    std::string_view line = head.substr(pos, end - pos);
    pos = end + 2;
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed HTTP header line");
    }
    request.headers[StrLower(StrTrim(line.substr(0, colon)))] =
        std::string(StrTrim(line.substr(colon + 1)));
  }
  return request;
}

Result<size_t> DeclaredContentLength(const HttpRequest& request, size_t max) {
  auto it = request.headers.find("content-length");
  if (it == request.headers.end()) return size_t{0};
  TELEIOS_ASSIGN_OR_RETURN(int64_t n, ParseInt64(it->second));
  if (n < 0 || static_cast<size_t>(n) > max) {
    return Status::InvalidArgument("unreasonable Content-Length " +
                                   it->second);
  }
  return static_cast<size_t>(n);
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

std::string BuildHttpResponse(int status, std::string_view content_type,
                              std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpStatusText(status) + "\r\n";
  out += "Content-Type: " + std::string(content_type) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

int HttpStatusForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return 408;
    case StatusCode::kResourceExhausted:
      return 413;
    case StatusCode::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

std::string TableToJson(const storage::Table& table) {
  std::string out = "{\"columns\":[";
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += obs::JsonEscapeString(table.schema().field(c).name);
    out += '"';
  }
  out += "],\"types\":[";
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += storage::ColumnTypeName(table.schema().field(c).type);
    out += '"';
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      AppendJsonValue(&out, table.Get(r, c));
    }
    out += ']';
  }
  out += "]}";
  return out;
}

std::string ErrorToJson(const Status& status) {
  return std::string("{\"error\":{\"code\":\"") +
         StatusCodeName(status.code()) + "\",\"message\":\"" +
         obs::JsonEscapeString(status.message()) + "\"}}";
}

}  // namespace teleios::server
