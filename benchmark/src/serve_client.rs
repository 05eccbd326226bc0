//! One client of the `--serve` line-JSON protocol, in this process: the
//! service loop runs on its own thread behind two OS pipes that stand in
//! for stdin and stdout, and the client waits for each response before it
//! sends the next request (a closed loop).

use fusion_cli::json::{escape, Value};
use fusion_cli::serve::serve_loop;
use fusion_cli::{CheckerScanStats, Finding, Options, ScanReport};
use std::io::{pipe, BufRead, BufReader, LineWriter, PipeReader, PipeWriter, Write};
use std::thread::JoinHandle;

/// A running service and its one client.
pub struct ServeClient {
    requests: Option<PipeWriter>,
    responses: BufReader<PipeReader>,
    service: Option<JoinHandle<i32>>,
}

impl ServeClient {
    /// Starts `fusion-scan --serve` with `opts` on a thread of its own.
    /// Its stdout is line-buffered, as the real process's is.
    pub fn start(opts: &Options) -> Result<ServeClient, String> {
        let (req_r, req_w) = pipe().map_err(|e| format!("request pipe: {e}"))?;
        let (resp_r, resp_w) = pipe().map_err(|e| format!("response pipe: {e}"))?;
        let opts = opts.clone();
        let service = std::thread::spawn(move || {
            serve_loop(&opts, BufReader::new(req_r), &mut LineWriter::new(resp_w))
        });
        Ok(ServeClient {
            requests: Some(req_w),
            responses: BufReader::new(resp_r),
            service: Some(service),
        })
    }

    /// Sends one request line and waits for its response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let w = self.requests.as_mut().expect("open until shutdown");
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .map_err(|e| format!("service stopped: {e}"))?;
        let mut resp = String::new();
        match self.responses.read_line(&mut resp) {
            Ok(0) => Err("service stopped without responding".into()),
            Ok(_) => Ok(resp.trim_end().to_owned()),
            Err(e) => Err(format!("reading the response: {e}")),
        }
    }

    /// A `scan` or `rescan` request for `source`.
    pub fn scan_request(cmd: &str, source: &str) -> String {
        format!("{{\"cmd\": \"{cmd}\", \"source\": \"{}\"}}", escape(source))
    }

    /// Asks the service to shut down and waits for its thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        let resp = self.request("{\"cmd\": \"shutdown\"}")?;
        let code = self.join();
        if code != Some(0) || !resp.contains("\"ok\": true") {
            return Err(format!("shutdown answered {resp}, exit code {code:?}"));
        }
        Ok(())
    }

    /// Closes the request pipe (end of input) and waits for the service.
    fn join(&mut self) -> Option<i32> {
        self.requests = None;
        self.service.take().and_then(|h| h.join().ok())
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        self.join();
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn text(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_owned()
}

/// Reads the report of a `scan`/`rescan` response back into the
/// scanner's own report type (the fields the benchmark reads).
pub fn parse_scan_response(line: &str) -> Result<ScanReport, String> {
    let v = Value::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("request failed: {}", text(&v, "error")));
    }
    let r = v.get("report").ok_or("response has no report")?;
    let list = |key: &str| r.get(key).and_then(Value::as_array).unwrap_or(&[]).to_vec();
    let u = |key: &str| num(r, key) as u64;
    Ok(ScanReport {
        findings: list("findings")
            .iter()
            .map(|f| Finding {
                checker: text(f, "checker"),
                source_function: text(f, "source_function"),
                sink_function: text(f, "sink_function"),
                verdict: text(f, "verdict"),
                path_length: num(f, "path_length") as usize,
            })
            .collect(),
        checkers: list("checkers")
            .iter()
            .map(|c| CheckerScanStats {
                checker: text(c, "checker"),
                candidates: num(c, "candidates") as usize,
                queries: num(c, "queries") as usize,
                discovery_steps: num(c, "discovery_steps") as u64,
                ..CheckerScanStats::default()
            })
            .collect(),
        sessions_opened: u("sessions_opened"),
        vertices: u("vertices") as usize,
        edges: u("edges") as usize,
        elapsed_ms: num(r, "elapsed_ms"),
        peak_memory_bytes: u("peak_memory_bytes"),
        cache_hits: u("cache_hits"),
        cache_misses: u("cache_misses"),
        discover_ms: num(r, "discover_ms"),
        slice_ms: num(r, "slice_ms"),
        translate_ms: num(r, "translate_ms"),
        solve_ms: num(r, "solve_ms"),
        slices_computed: u("slices_computed"),
        slices_reused: u("slices_reused"),
        triaged_paths: u("triaged_paths"),
        triaged_candidates: u("triaged_candidates"),
        vertices_pruned: u("vertices_pruned"),
        iso_hits: u("iso_hits"),
        egraph_rewrites: u("egraph_rewrites"),
        egraph_cap_hits: u("egraph_cap_hits"),
        egraph_nodes_saved: u("egraph_nodes_saved"),
        facts_invalidated: u("facts_invalidated"),
        verdicts_invalidated: u("verdicts_invalidated"),
        candidates_reanalyzed: u("candidates_reanalyzed"),
        summaries_imported: u("summaries_imported"),
        snapshot_bytes_written: u("snapshot_bytes_written"),
        snapshot_bytes_read: u("snapshot_bytes_read"),
        ..ScanReport::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "extern fn deref(p);\n\
        fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }";

    #[test]
    fn closed_loop_scan_rescan_shutdown() {
        let mut client = ServeClient::start(&Options::default()).unwrap();
        let scan = client
            .request(&ServeClient::scan_request("scan", SRC))
            .unwrap();
        let report = parse_scan_response(&scan).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].source_function, "f");
        let edited = SRC.replace("x > 0", "x * 2 == 5");
        let rescan = client
            .request(&ServeClient::scan_request("rescan", &edited))
            .unwrap();
        assert!(parse_scan_response(&rescan).unwrap().findings.is_empty());
        let bad = client.request("{\"cmd\": \"scan\"}").unwrap();
        assert!(parse_scan_response(&bad).is_err());
        client.shutdown().unwrap();
    }

    #[test]
    fn dropping_the_client_stops_the_service() {
        let client = ServeClient::start(&Options::default()).unwrap();
        drop(client);
    }
}
