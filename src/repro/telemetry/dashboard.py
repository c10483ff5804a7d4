"""The fleet status dashboard served at ``GET /``.

One self-contained HTML page, zero external assets (no CDN, no build
step — it must work on an air-gapped cluster head node).  Two
``EventSource`` consumers drive it:

- ``/v1/metrics/stream`` refreshes the summary cards (queue depth,
  running jobs, cache hit rate, uptime), the per-site fleet health
  table (state, ledger, heartbeat age), the campaign convergence
  list, and the telemetry-ring occupancy footer;
- ``/v1/events`` feeds the live ticker — job lifecycle transitions,
  failure injections and restarts of watched jobs, campaign progress
  — newest first, bounded to the last 200 rows.

The page is intentionally plain: rendering happens client-side from
the same JSON the API serves, so the dashboard can never disagree
with ``GET /v1/metrics``.
"""

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro fleet status</title>
<style>
  :root { color-scheme: dark; }
  body { margin: 0; background: #14181d; color: #d8dee6;
         font: 14px/1.45 system-ui, sans-serif; }
  header { display: flex; align-items: baseline; gap: 1rem;
           padding: 0.8rem 1.2rem; background: #1b2026;
           border-bottom: 1px solid #2c333b; }
  header h1 { font-size: 1.05rem; margin: 0; font-weight: 600; }
  #conn { font-size: 0.8rem; color: #8a93a0; }
  #conn.live { color: #6fc177; }
  main { display: grid; gap: 1rem; padding: 1rem 1.2rem;
         grid-template-columns: 1fr 1fr; max-width: 1100px; }
  section { background: #1b2026; border: 1px solid #2c333b;
            border-radius: 6px; padding: 0.7rem 0.9rem; }
  section h2 { font-size: 0.8rem; margin: 0 0 0.5rem;
               text-transform: uppercase; letter-spacing: 0.06em;
               color: #8a93a0; }
  #cards { grid-column: 1 / -1; display: flex; flex-wrap: wrap;
           gap: 1rem; background: none; border: none; padding: 0; }
  .card { flex: 1 1 8rem; background: #1b2026; border: 1px solid
          #2c333b; border-radius: 6px; padding: 0.6rem 0.9rem; }
  .card .v { font-size: 1.45rem; font-weight: 600; }
  .card .k { font-size: 0.75rem; color: #8a93a0; }
  table { width: 100%; border-collapse: collapse; font-size: 0.85rem; }
  th, td { text-align: left; padding: 0.25rem 0.5rem 0.25rem 0; }
  th { color: #8a93a0; font-weight: 500; }
  tr + tr td { border-top: 1px solid #242b33; }
  .ok { color: #6fc177; } .warn { color: #e0b858; }
  .bad { color: #e06c75; } .dim { color: #8a93a0; }
  #ticker { grid-column: 1 / -1; }
  #events { list-style: none; margin: 0; padding: 0; max-height: 22rem;
            overflow-y: auto; font: 12px/1.5 ui-monospace, monospace; }
  #events li { padding: 0.1rem 0; border-bottom: 1px solid #20262d;
               white-space: nowrap; overflow: hidden;
               text-overflow: ellipsis; }
  .kind { display: inline-block; min-width: 11em; }
  footer { padding: 0.4rem 1.2rem 1rem; color: #8a93a0;
           font-size: 0.75rem; }
</style>
</head>
<body>
<header>
  <h1>repro fleet status</h1>
  <span id="conn">connecting&hellip;</span>
</header>
<main>
  <section id="cards">
    <div class="card"><div class="v" id="c-queued">&ndash;</div>
      <div class="k">queued</div></div>
    <div class="card"><div class="v" id="c-running">&ndash;</div>
      <div class="k">running</div></div>
    <div class="card"><div class="v" id="c-done">&ndash;</div>
      <div class="k">completed</div></div>
    <div class="card"><div class="v" id="c-failed">&ndash;</div>
      <div class="k">failed</div></div>
    <div class="card"><div class="v" id="c-hit">&ndash;</div>
      <div class="k">cache hit rate</div></div>
    <div class="card"><div class="v" id="c-cost">&ndash;</div>
      <div class="k">grid cost (USD)</div></div>
    <div class="card"><div class="v" id="c-carbon">&ndash;</div>
      <div class="k">grid carbon (kg)</div></div>
    <div class="card"><div class="v" id="c-uptime">&ndash;</div>
      <div class="k">uptime</div></div>
  </section>
  <section>
    <h2>Sites</h2>
    <table><thead><tr><th>site</th><th>state</th><th>heartbeat</th>
      <th>inflight</th><th>done</th><th>failed</th></tr></thead>
      <tbody id="sites"><tr><td class="dim" colspan="6">no sites
      registered (local workers only)</td></tr></tbody></table>
  </section>
  <section>
    <h2>Campaigns</h2>
    <table><thead><tr><th>scenario</th><th>state</th><th>cells</th>
      <th>trials</th></tr></thead>
      <tbody id="campaigns"><tr><td class="dim" colspan="4">no
      campaigns submitted</td></tr></tbody></table>
  </section>
  <section id="ticker">
    <h2>Live events</h2>
    <ul id="events"></ul>
  </section>
</main>
<footer id="ring">telemetry ring: &ndash;</footer>
<script>
"use strict";
var $ = function (id) { return document.getElementById(id); };
var esc = function (s) {
  return String(s).replace(/[&<>"]/g, function (c) {
    return {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}[c];
  });
};
function fmtDur(s) {
  if (s == null) return "\\u2013";
  s = Math.floor(s);
  if (s < 90) return s + "s";
  if (s < 5400) return Math.floor(s / 60) + "m";
  return Math.floor(s / 3600) + "h" + Math.floor((s % 3600) / 60) + "m";
}
function hbClass(age) {
  return age < 30 ? "ok" : (age < 120 ? "warn" : "bad");
}
function renderMetrics(m) {
  $("c-queued").textContent = m.queue.depth;
  $("c-running").textContent = m.queue.running;
  $("c-done").textContent = m.jobs.completed;
  $("c-failed").textContent = m.jobs.failed;
  $("c-hit").textContent = m.cache.hit_rate == null
    ? "\\u2013" : Math.round(100 * m.cache.hit_rate) + "%";
  var g = m.grid || {};
  $("c-cost").textContent = g.cells_accounted
    ? "$" + Number(g.cost_usd).toLocaleString(
        undefined, {maximumFractionDigits: 0})
    : "\\u2013";
  $("c-carbon").textContent = g.cells_accounted
    ? Number(g.carbon_g / 1000).toLocaleString(
        undefined, {maximumFractionDigits: 0})
    : "\\u2013";
  $("c-uptime").textContent = fmtDur(m.uptime_s);
  var names = Object.keys(m.sites || {}).sort();
  if (names.length) {
    $("sites").innerHTML = names.map(function (n) {
      var s = m.sites[n];
      var age = s.last_heartbeat_age_s;
      return "<tr><td>" + esc(n) + "</td><td>" + esc(s.state || "?")
        + "</td><td class=" + hbClass(age == null ? 1e9 : age) + ">"
        + fmtDur(age) + " ago</td><td>" + (s.inflight || 0)
        + "</td><td>" + (s.completed || 0) + "</td><td>"
        + (s.failed || 0) + "</td></tr>";
    }).join("");
  }
  var cs = (m.campaigns && m.campaigns.campaigns) || [];
  if (cs.length) {
    $("campaigns").innerHTML = cs.map(function (c) {
      var cells = c.adaptive
        ? c.cells_settled + "/" + c.cells + " settled"
        : (c.units || 0) + " units";
      var trials = c.adaptive ? c.trials_executed : "\\u2013";
      return "<tr><td>" + esc(c.scenario) + "</td><td class="
        + (c.state === "done" ? "ok" : "dim") + ">" + esc(c.state)
        + "</td><td>" + cells + "</td><td>" + trials + "</td></tr>";
    }).join("");
  }
  var r = m.telemetry && m.telemetry.ring;
  if (r) {
    $("ring").textContent = "telemetry ring: " + r.size + "/"
      + r.capacity + " events, seq " + r.last_seq + ", "
      + r.dropped + " dropped, " + (m.telemetry.watched_jobs || 0)
      + " watched job(s)";
  }
}
var MAX_ROWS = 200;
function tickerClass(kind) {
  if (kind === "job.failed" || kind.indexOf("Failure") >= 0) return "bad";
  if (kind === "site.draining") return "warn";
  if (kind === "job.done" || kind === "campaign.done") return "ok";
  return "dim";
}
function describe(e) {
  var bits = [];
  if (e.job_id) bits.push("job " + e.job_id.slice(0, 10));
  if (e.site) bits.push("site " + e.site);
  if (e.campaign_id) bits.push("campaign " + e.campaign_id.slice(0, 8));
  var d = e.data || {};
  ["state", "worker", "technique", "fraction", "reason", "error",
   "node", "level", "downtime", "scenario"].forEach(function (k) {
    if (d[k] !== undefined && d[k] !== null) bits.push(k + "=" + d[k]);
  });
  return bits.join("  ");
}
function addEvent(e) {
  var li = document.createElement("li");
  var t = new Date(1000 * e.ts).toTimeString().slice(0, 8);
  li.innerHTML = '<span class="dim">' + t + "</span> "
    + '<span class="kind ' + tickerClass(e.kind) + '">'
    + esc(e.kind) + "</span> " + esc(describe(e));
  var list = $("events");
  list.insertBefore(li, list.firstChild);
  while (list.children.length > MAX_ROWS) {
    list.removeChild(list.lastChild);
  }
}
var metricsSource = new EventSource("/v1/metrics/stream");
metricsSource.addEventListener("metrics", function (msg) {
  renderMetrics(JSON.parse(msg.data));
  $("conn").textContent = "live";
  $("conn").className = "live";
});
metricsSource.onerror = function () {
  $("conn").textContent = "reconnecting\\u2026";
  $("conn").className = "";
};
var eventSource = new EventSource("/v1/events");
eventSource.addEventListener("event", function (msg) {
  addEvent(JSON.parse(msg.data));
});
eventSource.addEventListener("gap", function (msg) {
  var gap = JSON.parse(msg.data);
  addEvent({ts: Date.now() / 1000, kind: "feed.gap",
            data: {missed: gap.missed}});
});
</script>
</body>
</html>
"""
