//! Black-box smoke tests for the `upsim` binary: exit codes, stderr
//! routing for usage errors, and a served query round trip.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn upsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upsim"))
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    let out = upsim().arg("help").output().expect("run upsim help");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE:"), "stdout: {stdout}");
    assert!(out.stderr.is_empty(), "help must not write to stderr");
}

#[test]
fn unknown_command_exits_two_with_usage_on_stderr() {
    let out = upsim()
        .arg("frobnicate")
        .output()
        .expect("run upsim frobnicate");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "usage errors must not write to stdout"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown command 'frobnicate'"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("USAGE:"), "stderr: {stderr}");
}

#[test]
fn missing_model_flag_exits_two() {
    let out = upsim()
        .arg("generate")
        .output()
        .expect("run upsim generate");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing required flag --i"),
        "stderr: {stderr}"
    );
}

#[test]
fn flag_without_value_exits_two() {
    let out = upsim()
        .args(["paths", "-i"])
        .output()
        .expect("run upsim paths -i");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a value"), "stderr: {stderr}");
}

#[test]
fn runtime_failure_exits_one() {
    let out = upsim()
        .args(["validate", "-i", "/nonexistent/infra.xml"])
        .output()
        .expect("run upsim validate");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

#[test]
fn availability_mc_prices_with_the_kernel_and_rejects_zero_samples() {
    let dir = std::env::temp_dir().join(format!("upsim-cli-availability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let export = upsim()
        .arg("export-case-study")
        .arg(&dir)
        .output()
        .expect("run upsim export-case-study");
    assert_eq!(
        export.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let availability = |samples: &str| {
        upsim()
            .arg("availability")
            .arg("-i")
            .arg(dir.join("usi-infrastructure.xml"))
            .arg("-s")
            .arg(dir.join("printing-service.xml"))
            .arg("-m")
            .arg(dir.join("mapping-t1-p2.xml"))
            .args(["--mc", samples])
            .output()
            .expect("run upsim availability")
    };

    let priced = availability("2048");
    assert_eq!(
        priced.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&priced.stderr)
    );
    let stdout = String::from_utf8_lossy(&priced.stdout);
    assert!(
        stdout.contains("service availability (Monte-Carlo, 2048 samples)"),
        "stdout: {stdout}"
    );

    // Zero samples is a usage error, not a panic.
    let zero = availability("0");
    assert_eq!(zero.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert!(
        stderr.contains("--mc expects a positive sample count"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paths_lists_the_case_study_paths_in_dfs_order() {
    let dir = std::env::temp_dir().join(format!("upsim-cli-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let export = upsim()
        .arg("export-case-study")
        .arg(&dir)
        .output()
        .expect("run upsim export-case-study");
    assert_eq!(
        export.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let out = upsim()
        .arg("paths")
        .arg("-i")
        .arg(dir.join("usi-infrastructure.xml"))
        .args(["--from", "t1", "--to", "printS"])
        .output()
        .expect("run upsim paths");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    // DFS order over the model's link order; the second and third lines
    // are the two paths the paper prints (Sec. VI-G, E5).
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        [
            "t1—e1—d1—c1—c2—d4—printS",
            "t1—e1—d1—c1—d2—c2—d4—printS",
            "t1—e1—d1—c1—d4—printS",
            "t1—e1—d1—c2—c1—d4—printS",
            "t1—e1—d1—c2—d2—c1—d4—printS",
            "t1—e1—d1—c2—d4—printS",
            "6 path(s) between t1 and printS",
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh temp directory holding the exported case-study models.
fn exported_case_study(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("upsim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let export = upsim()
        .arg("export-case-study")
        .arg(&dir)
        .output()
        .expect("run upsim export-case-study");
    assert_eq!(
        export.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    dir
}

/// Runs `upsim` with `args`, expects exit 0 and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = upsim().args(args).output().expect("run upsim");
    assert_eq!(
        out.status.code(),
        Some(0),
        "upsim {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `availability`, `importance` and `redundancy` price the case study's
/// perspectives byte for byte as the recorded reports under
/// `tests/golden/` read, Monte-Carlo bits included: the reports the
/// commands printed when they listed every path in a model space.
#[test]
fn perspective_commands_print_the_recorded_case_study_reports() {
    /// `upsim <command> -i <infra> -s <service> -m <mapping> <flags>`.
    fn with_models<'a>(command: &'a str, models: [&'a str; 3], flags: &[&'a str]) -> Vec<&'a str> {
        let [infra, service, mapping] = models;
        let mut args = vec![command, "-i", infra, "-s", service, "-m", mapping];
        args.extend_from_slice(flags);
        args
    }
    let dir = exported_case_study("golden");
    let file = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (infra, service) = (file("usi-infrastructure.xml"), file("printing-service.xml"));
    let (t1_p2, t15_p3) = (file("mapping-t1-p2.xml"), file("mapping-t15-p3.xml"));
    let t1_p2 = [infra.as_str(), service.as_str(), t1_p2.as_str()];
    let t15_p3 = [infra.as_str(), service.as_str(), t15_p3.as_str()];
    let cases = [
        (
            with_models(
                "availability",
                t1_p2,
                &["--mc", "4096", "--transient", "--sensitivity"],
            ),
            include_str!("golden/availability-t1-p2-mc-transient-sensitivity.txt"),
        ),
        (
            with_models("availability", t15_p3, &[]),
            include_str!("golden/availability-t15-p3.txt"),
        ),
        (
            with_models("availability", t1_p2, &["--links", "--paper-formula"]),
            include_str!("golden/availability-t1-p2-links-paper.txt"),
        ),
        (
            vec![
                "importance",
                "--case-study",
                "--from",
                "t1",
                "--to",
                "p2",
                "--sensitivity",
            ],
            include_str!("golden/importance-case-study-t1-p2-sensitivity.txt"),
        ),
        (
            with_models("importance", t15_p3, &["--links"]),
            include_str!("golden/importance-t15-p3-links.txt"),
        ),
        (
            with_models("redundancy", t1_p2, &[]),
            include_str!("golden/redundancy-t1-p2.txt"),
        ),
    ];
    for (args, expected) in cases {
        assert_eq!(stdout_of(&args), expected, "upsim {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `t.16` and `t_16` are two devices, but a model space sanitizes both
/// names to `t_16`: the perspective commands build none, and answer.
#[test]
fn perspective_commands_answer_names_that_clash_in_a_model_space() {
    let dir = exported_case_study("clash");
    let mut infra = netgen::usi::usi_infrastructure();
    for name in ["t.16", "t_16"] {
        infra.add_device(name, "Comp").expect("a new device");
        infra.connect(name, "e4").expect("an access link");
    }
    let mut mapping = netgen::usi::second_perspective_mapping();
    mapping.move_requester("t15", "t_16");
    let (infra_xml, mapping_xml) = (dir.join("clash.xml"), dir.join("clash-mapping.xml"));
    std::fs::write(&infra_xml, infra.to_xml()).expect("write the infrastructure");
    std::fs::write(&mapping_xml, mapping.to_xml()).expect("write the mapping");
    let service = dir.join("printing-service.xml");
    let [infra_xml, mapping_xml, service] =
        [infra_xml, mapping_xml, service].map(|p| p.to_str().expect("utf-8 path").to_string());
    let run = |command: &str| {
        stdout_of(&[
            command,
            "-i",
            &infra_xml,
            "-s",
            &service,
            "-m",
            &mapping_xml,
        ])
    };
    let availability = run("availability");
    assert!(
        availability.contains("service availability (exact, BDD):       0.991704285"),
        "{availability}"
    );
    let importance = run("importance");
    assert!(
        importance.contains("perspective availability (exact, BDD): 0.991704285"),
        "{importance}"
    );
    let redundancy = run("redundancy");
    assert!(
        redundancy.contains("t_16 -> printS: 6 simple path(s), 1 disjoint route(s)"),
        "{redundancy}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// On E17's dual-homed campus with 11 distribution switches, the pair
/// `t0_0_0 → srv0` needs more than `MAX_DFS_FRAMES` DFS frames: `paths`
/// and `availability` refuse it with the server's budget error instead of
/// listing or pricing it.
#[test]
fn perspective_commands_refuse_a_perspective_past_the_frame_budget() {
    let dir = std::env::temp_dir().join(format!("upsim-cli-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a temp dir");
    let infra = netgen::campus::campus_infrastructure(netgen::campus::CampusParams {
        core: 2,
        distributions: 11,
        edges_per_distribution: 2,
        clients_per_edge: 1,
        servers: 1,
        dual_homed_edges: true,
    });
    let service = upsim_core::service::CompositeService::sequential("fetch", &["request"])
        .expect("a one-step service");
    let mapping = upsim_core::mapping::ServiceMapping::new().with(
        upsim_core::mapping::ServiceMappingPair::new("request", "t0_0_0", "srv0"),
    );
    let file = |name: &str, content: String| {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write a model");
        path.to_str().expect("utf-8 path").to_string()
    };
    let infra_xml = file("campus.xml", infra.to_xml());
    let service_xml = file("service.xml", service.to_xml());
    let mapping_xml = file("mapping.xml", mapping.to_xml());
    let budget = format!(
        "exceeds the budget of {} DFS frames",
        upsim_core::discovery::MAX_DFS_FRAMES
    );
    for args in [
        &[
            "paths", "-i", &infra_xml, "--from", "t0_0_0", "--to", "srv0",
        ][..],
        &[
            "availability",
            "-i",
            &infra_xml,
            "-s",
            &service_xml,
            "-m",
            &mapping_xml,
        ],
    ] {
        let (code, stderr) = exit_of(args);
        assert_eq!(code, Some(1), "upsim {args:?}: {stderr}");
        assert!(
            stderr.contains("path discovery between requester 't0_0_0' and provider 'srv0'")
                && stderr.contains(&budget),
            "upsim {args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `upsim` with `args` to its exit and returns its exit code and
/// stderr. A process still running after 10 s is killed and fails the
/// test, so a command that wrongly starts serving cannot hang the suite.
fn exit_of(args: &[&str]) -> (Option<i32>, String) {
    let mut child = upsim()
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn upsim");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll upsim") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("upsim {args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.code(), stderr)
}

#[test]
fn a_flag_the_command_does_not_read_exits_two() {
    let cases: [(&[&str], &str); 2] = [
        (
            &[
                "paths",
                "-i",
                "infra.xml",
                "--from",
                "t1",
                "--to",
                "printS",
                "--parallel",
                "2",
            ],
            "'upsim paths' has no flag '--parallel'",
        ),
        (
            &["serve", "--case-study", "--worker", "2"],
            "'upsim serve' has no flag '--worker'",
        ),
    ];
    for (args, refusal) in cases {
        let (code, stderr) = exit_of(args);
        assert_eq!(code, Some(2), "upsim {args:?}: {stderr}");
        assert!(stderr.contains(refusal), "stderr: {stderr}");
        assert!(stderr.contains("USAGE:"), "stderr: {stderr}");
    }
}

/// Asserts that `upsim <args>` exits 2 with `refusal`, which names a flag
/// and the flag it is read only beside (or never beside).
fn assert_unpaired(args: &[&str], refusal: &str) {
    let (code, stderr) = exit_of(args);
    assert_eq!(code, Some(2), "upsim {args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {refusal}\n")),
        "upsim {args:?}: {stderr}"
    );
}

#[test]
fn validate_refuses_a_mapping_without_a_service() {
    assert_unpaired(
        &["validate", "-i", "infra.xml", "-m", "/nonexistent.xml"],
        "-m requires -s",
    );
}

#[test]
fn importance_refuses_a_perspective_beside_model_files() {
    for flag in ["--from", "--to"] {
        let files = ["-i", "infra.xml", "-s", "service.xml", "-m", "mapping.xml"];
        let args = [&["importance", flag, "t15"][..], &files].concat();
        assert_unpaired(&args, &format!("{flag} cannot be combined with -i"));
    }
}

#[test]
fn importance_refuses_the_case_study_beside_model_files() {
    assert_unpaired(
        &[
            "importance",
            "--case-study",
            "-i",
            "/nonexistent.xml",
            "--from",
            "t1",
            "--to",
            "p2",
        ],
        "--case-study cannot be combined with -i",
    );
}

#[test]
fn importance_refuses_a_service_or_mapping_without_infrastructure() {
    for flag in ["-s", "-m"] {
        let args = ["importance", "--from", "t1", "--to", "p2", flag, "x.xml"];
        assert_unpaired(&args, &format!("{flag} requires -i"));
    }
}

#[test]
fn query_refuses_a_count_without_a_pipeline() {
    let args = [
        "query",
        "--addr",
        "127.0.0.1:9",
        "--from",
        "t1",
        "--to",
        "p1",
    ];
    assert_unpaired(
        &[&args[..], &["--count", "5"]].concat(),
        "--count requires --pipeline",
    );
}

#[test]
fn campaign_refuses_a_model_without_an_address() {
    assert_unpaired(
        &[
            "campaign",
            "--spec",
            "kill-each-component",
            "--model",
            "usi",
        ],
        "--model requires --addr",
    );
}

#[test]
fn campaign_refuses_an_address_beside_local_models() {
    let remote = [
        "campaign",
        "--spec",
        "kill-each-component",
        "--addr",
        "127.0.0.1:9",
    ];
    for (local, refusal) in [
        (
            &["--case-study"][..],
            "--addr cannot be combined with --case-study",
        ),
        (
            &["-i", "infra.xml", "-s", "service.xml"],
            "--addr cannot be combined with -i",
        ),
        (&["-s", "service.xml"], "--addr cannot be combined with -s"),
    ] {
        assert_unpaired(&[&remote[..], local].concat(), refusal);
    }
}

#[test]
fn serve_refuses_save_every_without_a_state_dir() {
    assert_unpaired(
        &["serve", "--case-study", "--save-every", "2"],
        "--save-every requires --state-dir",
    );
}

#[test]
fn serve_refuses_named_models_beside_local_models() {
    let named = ["serve", "--model", "usi=case-study"];
    for (local, refusal) in [
        (
            &["--case-study"][..],
            "--model cannot be combined with --case-study",
        ),
        (
            &["-i", "infra.xml", "-s", "service.xml"],
            "--model cannot be combined with -i",
        ),
        (&["-s", "service.xml"], "--model cannot be combined with -s"),
    ] {
        assert_unpaired(&[&named[..], local].concat(), refusal);
    }
}

/// `serve`, `restore` and a local `campaign` load the case study, or
/// `-i` with `-s`, and refuse any other mix of the three.
#[test]
fn local_models_are_the_case_study_or_infrastructure_with_service() {
    let commands: [&[&str]; 3] = [
        &["serve"],
        &["restore", "--state-dir", "/nonexistent"],
        &["campaign", "--spec", "kill-each-component"],
    ];
    for command in commands {
        for (models, refusal) in [
            (
                &["--case-study", "-i", "infra.xml", "-s", "service.xml"][..],
                "--case-study cannot be combined with -i",
            ),
            (
                &["--case-study", "-s", "service.xml"],
                "--case-study cannot be combined with -s",
            ),
            (&["-s", "service.xml"], "-s requires -i"),
        ] {
            assert_unpaired(&[command, models].concat(), refusal);
        }
    }
}

#[test]
fn long_model_aliases_are_read_without_the_short_ones() {
    // `--infrastructure` alone selects model files, as `-i` does, instead
    // of falling back to the case study.
    let dir = std::env::temp_dir().join(format!("upsim-cli-aliases-{}", std::process::id()));
    let (code, stderr) = exit_of(&[
        "restore",
        "--state-dir",
        dir.to_str().expect("utf8 dir"),
        "--infrastructure",
        "/nonexistent/infra.xml",
        "--service",
        "/nonexistent/service.xml",
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot read '/nonexistent/infra.xml'"),
        "stderr: {stderr}"
    );
}

#[test]
fn restore_smoke_tolerates_torn_journal_tail() {
    let dir = std::env::temp_dir().join(format!("upsim-cli-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    // Two committed records plus a torn (unterminated) tail from a crash.
    std::fs::write(
        dir.join("journal.log"),
        "1 DISCONNECT c1 c2\n2 CONNECT c1 c2\n3 DISCO",
    )
    .expect("write journal");

    let out = upsim()
        .args(["restore", "--state-dir", dir.to_str().expect("utf8 dir")])
        .output()
        .expect("run upsim restore");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("epoch 2"), "stdout: {stdout}");
    assert!(stdout.contains("2 replayed"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_smoke_rejects_corrupt_journal() {
    let dir = std::env::temp_dir().join(format!("upsim-cli-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    std::fs::write(
        dir.join("journal.log"),
        "1 DISCONNECT c1 c2\nnot a journal line\n2 CONNECT c1 c2\n",
    )
    .expect("write journal");

    let out = upsim()
        .args(["restore", "--state-dir", dir.to_str().expect("utf8 dir")])
        .output()
        .expect("run upsim restore");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("journal") && stderr.contains("line 2"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_resumes_saved_state_across_restart() {
    fn request(addr: &str, line: &str) -> String {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send newline");
        writer.flush().expect("flush");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read response");
        response.trim_end().to_string()
    }
    type ServerLines = std::io::Lines<BufReader<std::process::ChildStdout>>;
    // The lines iterator is returned so the pipe's read end stays open
    // until the server has printed its final banner and exited.
    fn spawn_serve(dir: &std::path::Path) -> (std::process::Child, String, ServerLines) {
        let mut server = upsim()
            .args([
                "serve",
                "--case-study",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--state-dir",
                dir.to_str().expect("utf8 dir"),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn upsim serve");
        let mut lines = BufReader::new(server.stdout.take().expect("piped stdout")).lines();
        let addr = loop {
            let line = lines.next().expect("server banner").expect("read banner");
            if let Some(word) = line
                .split_whitespace()
                .find(|word| word.starts_with("127.0.0.1:"))
            {
                break word.to_string();
            }
        };
        (server, addr, lines)
    }

    let dir = std::env::temp_dir().join(format!("upsim-cli-serve-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: mutate, SAVE, journal one more update, shut down.
    let (mut server, addr, _lines) = spawn_serve(&dir);
    assert!(request(&addr, "UPDATE DISCONNECT d1 c2").starts_with("OK update"));
    assert!(request(&addr, "SAVE").starts_with("OK save epoch=1"));
    assert!(request(&addr, "UPDATE CONNECT d1 c2").starts_with("OK update"));
    assert_eq!(request(&addr, "SHUTDOWN"), "OK shutdown");
    assert!(server.wait().expect("server exits").success());

    // Second life: must resume at epoch 2 (snapshot + replayed suffix).
    let (mut server, addr, _lines) = spawn_serve(&dir);
    let stats = request(&addr, "STATS");
    assert!(stats.contains("epoch=2"), "stats: {stats}");
    assert!(stats.contains("journal_len=2"), "stats: {stats}");
    assert!(stats.contains("last_save_epoch=1"), "stats: {stats}");
    let query = request(&addr, "QUERY t1 p1");
    assert!(query.contains("epoch=2"), "query: {query}");
    assert_eq!(request(&addr, "SHUTDOWN"), "OK shutdown");
    assert!(server.wait().expect("server exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Multi-model lifecycle over the CLI: serve two named models, drive
/// them through per-connection USE sessions, SAVE one, restart, and
/// check `upsim restore` walks the manifest with per-model epochs.
#[test]
fn serve_multi_model_save_restart_restore() {
    // USE is per-connection state, so the wire helper must hold one
    // connection open across requests (unlike the one-shot `request`).
    struct Session {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }
    impl Session {
        fn connect(addr: &str) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            Session {
                reader,
                writer: stream,
            }
        }
        fn request(&mut self, line: &str) -> String {
            self.writer.write_all(line.as_bytes()).expect("send");
            self.writer.write_all(b"\n").expect("send newline");
            self.writer.flush().expect("flush");
            let mut response = String::new();
            self.reader.read_line(&mut response).expect("read response");
            response.trim_end().to_string()
        }
    }
    fn spawn_multi(
        dir: &std::path::Path,
    ) -> (
        std::process::Child,
        String,
        std::io::Lines<BufReader<std::process::ChildStdout>>,
    ) {
        let mut server = upsim()
            .args([
                "serve",
                "--model",
                "usi=case-study",
                "--model",
                "spare=case-study",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--state-dir",
                dir.to_str().expect("utf8 dir"),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn upsim serve");
        let mut lines = BufReader::new(server.stdout.take().expect("piped stdout")).lines();
        let addr = loop {
            let line = lines.next().expect("server banner").expect("read banner");
            if let Some(word) = line
                .split_whitespace()
                .find(|word| word.starts_with("127.0.0.1:"))
            {
                break word.to_string();
            }
        };
        (server, addr, lines)
    }

    let dir = std::env::temp_dir().join(format!("upsim-cli-multi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: two sessions on different models. usi reaches epoch 2
    // with a snapshot at epoch 1; spare reaches epoch 1, journal only.
    let (mut server, addr, _lines) = spawn_multi(&dir);
    let mut on_usi = Session::connect(&addr);
    let mut on_spare = Session::connect(&addr);
    assert_eq!(on_usi.request("USE usi"), "OK use model=usi epoch=0");
    assert_eq!(on_spare.request("USE spare"), "OK use model=spare epoch=0");
    assert!(on_usi
        .request("UPDATE DISCONNECT d1 c2")
        .starts_with("OK update kind=disconnect epoch=1"));
    assert!(on_usi.request("SAVE").starts_with("OK save epoch=1"));
    assert!(on_usi
        .request("UPDATE CONNECT d1 c2")
        .starts_with("OK update kind=connect epoch=2"));
    assert!(on_spare
        .request("UPDATE DISCONNECT c1 c2")
        .starts_with("OK update kind=disconnect epoch=1"));
    let query = on_spare.request("QUERY t1 p1");
    assert!(
        query.starts_with("OK query") && query.contains("epoch=1"),
        "spare query: {query}"
    );
    let models = on_usi.request("MODELS");
    assert!(
        models.starts_with("OK models n=2 usi:epoch=2:cache=")
            && models.contains(" spare:epoch=1:cache="),
        "models: {models}"
    );
    assert_eq!(on_usi.request("SHUTDOWN"), "OK shutdown");
    assert!(server.wait().expect("server exits").success());

    // Second life: every shard resumes at its pre-shutdown epoch.
    let (mut server, addr, _lines) = spawn_multi(&dir);
    let mut session = Session::connect(&addr);
    let models = session.request("MODELS");
    assert!(
        models.starts_with("OK models n=2 usi:epoch=2:cache=")
            && models.contains(" spare:epoch=1:cache="),
        "restored models: {models}"
    );
    drop(session);
    // `query --model` selects the shard before asking.
    let remote = upsim()
        .args([
            "query", "--addr", &addr, "--model", "spare", "--from", "t1", "--to", "p1",
        ])
        .output()
        .expect("run upsim query --model");
    let stdout = String::from_utf8_lossy(&remote.stdout);
    assert_eq!(
        remote.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
    assert!(
        stdout.contains("OK use model=spare epoch=1"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("epoch=1"), "stdout: {stdout}");
    let unknown = upsim()
        .args([
            "query", "--addr", &addr, "--model", "ghost", "--from", "t1", "--to", "p1",
        ])
        .output()
        .expect("run upsim query --model ghost");
    assert_eq!(unknown.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown model"),
        "stderr: {}",
        String::from_utf8_lossy(&unknown.stderr)
    );
    let mut closer = Session::connect(&addr);
    assert_eq!(closer.request("SHUTDOWN"), "OK shutdown");
    assert!(server.wait().expect("server exits").success());

    // Offline restore walks the manifest and reports per-model epochs.
    let out = upsim()
        .args(["restore", "--state-dir", dir.to_str().expect("utf8 dir")])
        .output()
        .expect("run upsim restore");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("manifest: 2 model(s): usi, spare"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("model 'usi' OK: epoch 2"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("model 'spare' OK: epoch 1"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("2 model(s) checked"), "stdout: {stdout}");

    // Narrowed to one model; an unregistered narrow is a runtime error.
    let one = upsim()
        .args([
            "restore",
            "--state-dir",
            dir.to_str().expect("utf8 dir"),
            "--model",
            "spare",
        ])
        .output()
        .expect("run upsim restore --model");
    let stdout = String::from_utf8_lossy(&one.stdout);
    assert_eq!(one.status.code(), Some(0));
    assert!(
        stdout.contains("model 'spare' OK: epoch 1") && stdout.contains("1 model(s) checked"),
        "stdout: {stdout}"
    );
    assert!(!stdout.contains("model 'usi'"), "stdout: {stdout}");
    let missing = upsim()
        .args([
            "restore",
            "--state-dir",
            dir.to_str().expect("utf8 dir"),
            "--model",
            "ghost",
        ])
        .output()
        .expect("run upsim restore --model ghost");
    assert_eq!(missing.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("not in the manifest"),
        "stderr: {}",
        String::from_utf8_lossy(&missing.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_query_round_trip() {
    // Ephemeral port; the server prints the bound address on its first line.
    let mut server = upsim()
        .args([
            "serve",
            "--case-study",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn upsim serve");
    let mut lines = BufReader::new(server.stdout.take().expect("piped stdout")).lines();
    let banner = lines.next().expect("server banner").expect("read banner");
    let addr = banner
        .split_whitespace()
        .find(|word| word.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    let query = upsim()
        .args(["query", "--addr", &addr, "--from", "t1", "--to", "p1"])
        .output()
        .expect("run upsim query");
    let stdout = String::from_utf8_lossy(&query.stdout);
    assert_eq!(
        query.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&query.stderr)
    );
    assert!(
        stdout.contains("OK query client=t1 provider=p1"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("availability=0."), "stdout: {stdout}");

    // A query for a bogus device is a runtime failure (exit 1), not usage.
    let bad = upsim()
        .args(["query", "--addr", &addr, "--from", "ghost", "--to", "p1"])
        .output()
        .expect("run upsim query ghost");
    assert_eq!(bad.status.code(), Some(1));

    // Shut the server down over the wire and reap it.
    let mut stream = TcpStream::connect(&addr).expect("connect for shutdown");
    stream.write_all(b"SHUTDOWN\n").expect("send shutdown");
    stream.flush().expect("flush shutdown");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exit: {status:?}");
}
