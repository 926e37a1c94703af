#include "source_lexer.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace ppdb::analyzer {

std::string BlankCommentsAndStrings(const std::string& source) {
  std::string out = source;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kQuoted,  // "..." or '...', closed by `quote`
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  char quote = '"';
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   out[i - 1])) &&
                               out[i - 1] != '_'))) {
          // R"delim( — capture the delimiter up to the '('.
          size_t j = i + 2;
          raw_delim.clear();
          while (j < out.size() && out[j] != '(' && out[j] != '\n' &&
                 raw_delim.size() < 16) {
            raw_delim.push_back(out[j]);
            ++j;
          }
          if (j < out.size() && out[j] == '(') {
            state = State::kRawString;
            for (size_t k = i; k <= j; ++k) {
              if (out[k] != '\n') out[k] = ' ';
            }
            i = j;
          }
        } else if (c == '"' || c == '\'') {
          state = State::kQuoted;
          quote = c;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kQuoted:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < out.size()) {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == quote) {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString: {
        // Ends at )delim"
        if (c == ')' &&
            out.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < out.size() &&
            out[i + 1 + raw_delim.size()] == '"') {
          const size_t end = i + 1 + raw_delim.size();
          for (size_t k = i; k <= end; ++k) {
            if (out[k] != '\n') out[k] = ' ';
          }
          i = end;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

std::vector<Token> Tokenize(const std::string& blanked) {
  std::vector<Token> tokens;
  int line = 1;
  const size_t n = blanked.size();
  for (size_t i = 0; i < n;) {
    const char c = blanked[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(blanked[j])) ||
                       blanked[j] == '_')) {
        ++j;
      }
      tokens.push_back({Token::Kind::kIdent, blanked.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i + 1;
      while (j < n && (std::isalnum(static_cast<unsigned char>(blanked[j])) ||
                       blanked[j] == '.' || blanked[j] == '\'')) {
        ++j;
      }
      tokens.push_back({Token::Kind::kNumber, blanked.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Multi-character operators the passes match on.
    const char next = i + 1 < n ? blanked[i + 1] : '\0';
    if ((c == ':' && next == ':') || (c == '-' && next == '>') ||
        (c == '+' && next == '=') || (c == '-' && next == '=')) {
      tokens.push_back(
          {Token::Kind::kPunct, std::string{c, next}, line});
      i += 2;
      continue;
    }
    tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  tokens.push_back({Token::Kind::kEnd, "", line});
  return tokens;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::string PairedHeader(const std::string& rel) {
  return EndsWith(rel, ".cc") ? rel.substr(0, rel.size() - 3) + ".h" : rel;
}

size_t MatchForward(const std::vector<Token>& tokens, size_t open,
                    const std::string& open_text,
                    const std::string& close_text) {
  int balance = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == open_text) ++balance;
    if (tokens[i].text == close_text && --balance == 0) return i;
  }
  return tokens.size();
}

bool ReadFile(const std::string& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *content = buffer.str();
  return true;
}

bool LoadSourceFile(const std::string& path, const std::string& rel,
                    SourceFile* out) {
  std::string content;
  if (!ReadFile(path, &content)) return false;
  out->rel = rel;
  out->lines = SplitLines(content);
  out->tokens = Tokenize(BlankCommentsAndStrings(content));
  return true;
}

bool HasAllowMarker(const std::vector<std::string>& lines, int line_no,
                    const std::string& check) {
  const std::string marker = "ppdb-lint: allow(" + check + ")";
  auto line_has = [&](int no) {
    if (no < 1 || no > static_cast<int>(lines.size())) return false;
    return lines[static_cast<size_t>(no - 1)].find(marker) !=
           std::string::npos;
  };
  auto is_comment_line = [&](int no) {
    if (no < 1 || no > static_cast<int>(lines.size())) return false;
    const std::string& text = lines[static_cast<size_t>(no - 1)];
    const size_t first = text.find_first_not_of(" \t");
    return first != std::string::npos && text.compare(first, 2, "//") == 0;
  };
  if (line_has(line_no)) return true;
  for (int no = line_no - 1; no >= 1 && is_comment_line(no); --no) {
    if (line_has(no)) return true;
  }
  return false;
}

}  // namespace ppdb::analyzer
