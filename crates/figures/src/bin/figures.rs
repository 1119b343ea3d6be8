//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures                  print every table and figure as text
//! figures fig03 fig10      print selected figures (an unknown id exits 2)
//! figures table2           print Table II
//! figures --json out/      also write each figure as JSON into out/
//! figures --csv out/       also write each figure as CSV into out/
//! figures --plot           render ASCII log-log plots instead of tables
//! ```

use figures::{all_figures, figure_by_id, tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut plot = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_dir = it.next(),
            "--csv" => csv_dir = it.next(),
            "--plot" => plot = true,
            "--report" => {
                let claims = figures::report::evaluate_claims();
                println!("{}", figures::report::render_markdown(&claims));
                return;
            }
            "-h" | "--help" => {
                eprintln!("usage: figures [ids…] [--json DIR] [--csv DIR] [--plot] [--report]");
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }

    let figs = if wanted.is_empty() {
        println!("{}", tables::table2_text());
        all_figures()
    } else {
        let mut out = Vec::new();
        for id in &wanted {
            if id == "table2" {
                println!("{}", tables::table2_text());
                continue;
            }
            match figure_by_id(id) {
                Some(f) => out.push(f),
                None => {
                    let known: Vec<&str> = all_figures().iter().map(|f| f.id).collect();
                    eprintln!(
                        "unknown figure id: {id}\nknown ids: table2 {}",
                        known.join(" ")
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };

    for f in &figs {
        if plot {
            println!(
                "{}",
                figures::render_plot(f, figures::PlotOptions::default())
            );
        } else {
            println!("{}", f.render_text());
        }
    }

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        for f in &figs {
            let path = format!("{dir}/{}.json", f.id);
            std::fs::write(&path, f.to_json()).expect("write json");
            eprintln!("wrote {path}");
        }
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for f in &figs {
            let path = format!("{dir}/{}.csv", f.id);
            std::fs::write(&path, f.render_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}
