#include "trace/export.h"

#include <cstdio>
#include <map>

namespace rmrsim {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

const char* kind_name(const StepRecord& r) {
  return r.kind == StepRecord::Kind::kMemOp ? "mem" : "event";
}

const char* event_name(EventKind e) {
  switch (e) {
    case EventKind::kCallBegin: return "call_begin";
    case EventKind::kCallEnd: return "call_end";
    case EventKind::kDirective: return "directive";
    case EventKind::kMark: return "mark";
    case EventKind::kDelay: return "delay";
    case EventKind::kCrash: return "crash";
    case EventKind::kRecover: return "recover";
  }
  return "?";
}

}  // namespace

void write_history_csv(std::ostream& os, const History& h) {
  os << "index,proc,kind,op,var,home,arg0,arg1,result,rmr,nontrivial,event,"
        "code,value,terminated\n";
  std::string out;
  for (const StepRecord& r : h.records()) {
    out.clear();
    out += std::to_string(r.index) + ',' + std::to_string(r.proc) + ',';
    out += kind_name(r);
    out += ',';
    if (r.kind == StepRecord::Kind::kMemOp) {
      out += to_string(r.op.type) + ',' + std::to_string(r.op.var) + ',' +
             std::to_string(r.var_home) + ',' + std::to_string(r.op.arg0) +
             ',' + std::to_string(r.op.arg1) + ',' +
             std::to_string(r.outcome.result) + ',' +
             (r.outcome.rmr ? "1," : "0,") +
             (r.outcome.nontrivial ? "1," : "0,") + ",,";
    } else {
      out += ",,,,,,,,";
      out += event_name(r.event);
      out += ',' + std::to_string(r.code) + ',' + std::to_string(r.value);
    }
    out += r.terminated_after ? ",1\n" : ",0\n";
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
  }
}

void write_history_json_lines(std::ostream& os, const History& h) {
  std::string out;
  for (const StepRecord& r : h.records()) {
    out.clear();
    out += "{\"index\":" + std::to_string(r.index) +
           ",\"proc\":" + std::to_string(r.proc) + ",\"kind\":\"" +
           json_escape(kind_name(r)) + "\"";
    if (r.kind == StepRecord::Kind::kMemOp) {
      out += ",\"op\":\"" + json_escape(to_string(r.op.type)) + "\",\"var\":" +
             std::to_string(r.op.var) + ",\"home\":" +
             std::to_string(r.var_home) + ",\"arg0\":" +
             std::to_string(r.op.arg0) + ",\"arg1\":" +
             std::to_string(r.op.arg1) + ",\"result\":" +
             std::to_string(r.outcome.result) + ",\"rmr\":" +
             (r.outcome.rmr ? "true" : "false") + ",\"nontrivial\":" +
             (r.outcome.nontrivial ? "true" : "false");
    } else {
      out += ",\"event\":\"";
      out += json_escape(event_name(r.event));
      out += "\",\"code\":" + std::to_string(r.code) +
             ",\"value\":" + std::to_string(r.value);
    }
    out += ",\"terminated\":";
    out += r.terminated_after ? "true" : "false";
    out += "}\n";
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
  }
}

std::string history_timeline(const History& h, int max_cols) {
  std::map<ProcId, std::string> lanes;
  for (const ProcId p : h.participants()) lanes[p] = {};
  int col = 0;
  bool truncated = false;
  for (const StepRecord& r : h.records()) {
    if (col >= max_cols) {
      truncated = true;
      break;
    }
    std::string cell;
    if (r.kind == StepRecord::Kind::kMemOp) {
      char c = 'o';
      if (r.op.type == OpType::kRead) c = 'R';
      if (r.op.type == OpType::kWrite) c = 'W';
      cell = std::string(1, c) + (r.outcome.rmr ? "!" : " ");
    } else {
      switch (r.event) {
        case EventKind::kCallBegin: cell = "b "; break;
        case EventKind::kCallEnd: cell = "e "; break;
        case EventKind::kDirective: cell = "d "; break;
        case EventKind::kMark: cell = "m "; break;
        case EventKind::kDelay: cell = "z "; break;
        case EventKind::kCrash: cell = "# "; break;
        case EventKind::kRecover: cell = "^ "; break;
      }
    }
    if (r.terminated_after) cell[1] = 'X';
    for (auto& [p, lane] : lanes) {
      lane += (p == r.proc) ? cell : ". ";
    }
    ++col;
  }
  std::string out;
  for (const auto& [p, lane] : lanes) {
    out += "p" + std::to_string(p);
    out.append(p < 10 ? 2 : 1, ' ');
    out += "| " + lane + (truncated ? "..." : "") + "\n";
  }
  out += "legend: R/W/o = read/write/rmw ('!' = RMR), b/e = call begin/end, "
         "d = directive, m = mark, X = terminated\n";
  return out;
}

}  // namespace rmrsim
